// Fixture for the reflectsort analyzer's scope: measurement and tooling
// packages may sort however they like.
package bench

import "sort"

func report(ids []uint64) {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
}
