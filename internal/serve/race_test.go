//go:build race

package serve

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is handed, so pooled frame buffers are reallocated at random.
const raceEnabled = true
