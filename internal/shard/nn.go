// Best-first k-NN over the sharded set.
//
// The range path visits the surviving shards in shard order. k-NN cannot
// afford that: best-first traversal exists to stop after k elements, and
// a scatter would pay every shard's seed descent up front. Instead the
// shard directory is the top level of core's one best-first frontier
// (core.NN): a shard enters the heap keyed by the distance to its bounds
// and is seeded only when that item surfaces, so a shard whose bound
// exceeds the last element the consumer takes is never opened. The
// staged delta joins the same frontier as core.NN's overlay: NNQuery
// takes the pooled view of the delta a range query takes (delta.go) and
// hands it over. Ties and the delete filter are core.NN's.

package shard

import (
	"context"
	"fmt"

	"flat/internal/core"
	"flat/internal/geom"
)

// NNQuery streams the live elements in nondecreasing distance from p,
// each with its exact squared distance, until emit returns false. Live
// means bulkloaded and not hidden by a staged delete, or staged and not
// deleted since. A staged insert ranks after every bulkloaded element at
// its distance, and among staged inserts by staging order. A p with a
// NaN or infinite coordinate is an error. The returned stats cover
// exactly the work performed and Results counts the elements emitted.
// Like StreamRuns the stream is one query: ErrClosed after Close.
//
// k is reserved: the stream runs until emit stops it, so a caller
// wanting k results stops after the k-th. It remains only because
// benchmark/ — frozen between benchmark PRs — passes it; the next
// benchmark-archetype PR drops the parameter.
func (s *Set) NNQuery(ctx context.Context, p geom.Vec3, _ int, emit func(geom.Element, float64) bool) (core.QueryStats, error) {
	if !geom.PointBox(p).Valid() {
		return core.QueryStats{}, fmt.Errorf("shard: nn query point %v is not finite", p)
	}
	var st core.QueryStats
	err := s.query(func(g *generation, v *view) (err error) {
		st, err = core.NN(ctx, g.shards, v, p, emit)
		return err
	})
	return st, err
}
