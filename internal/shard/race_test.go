//go:build race

package shard

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is handed, so pooled scratch is reallocated at random.
const raceEnabled = true
