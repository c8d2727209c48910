package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"flat/internal/core"
	"flat/internal/geom"
	"flat/internal/shard"
)

// nnKs is the k sweep of the nearest-neighbor experiment. The point of
// the figure is the gap between best-first termination and a full
// drain, so the sweep spans "one element" to "small neighborhood".
var nnKs = []int{1, 10, 100}

// nnExperiment measures the best-first k-NN traversal against the only
// strategy the Range surface allowed before it existed: drain the
// whole index and sort by distance. Pages read per query vs k, on the
// unsharded FLAT index and the sharded K=4 directory, cold per query
// (each query counts each page it reads once) like every other figure.
//
// Two claims are enforced, not just reported:
//
//   - parity: for every query point, the NN stream's k results match
//     the brute-force k nearest positionally by (squared) distance,
//     and the stream is nondecreasing;
//   - pruning: at every k in the sweep, NN reads strictly fewer pages
//     per query than the drain-and-sort baseline.
func (r *Runner) nnExperiment() ([]*Table, error) {
	n := r.Cfg.Densities[len(r.Cfg.Densities)-1]
	s, err := r.set(n)
	if err != nil {
		return nil, err
	}
	m := r.model(n)

	// Query points: uniform over the tissue volume, plus a few outside
	// it (a probe from empty space must still descend to the nearest
	// occupied corner, not scan).
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 300))
	points := make([]geom.Vec3, r.Cfg.Queries)
	size := m.Volume.Size()
	for i := range points {
		f := 1.0
		if i%8 == 7 {
			f = 1.5 // outside the volume on some axes
		}
		points[i] = geom.V(
			m.Volume.Min.X+rng.Float64()*size.X*f,
			m.Volume.Min.Y+rng.Float64()*size.Y*f,
			m.Volume.Min.Z+rng.Float64()*size.Z*f,
		)
	}

	// Brute-force reference and drain-and-sort baseline cost, measured
	// on the unsharded index: one cold full drain per query is what the
	// baseline would pay regardless of k.
	all, drainSt, err := s.flat.RangeQuery(s.flat.Bounds().Expand(1))
	if err != nil {
		return nil, err
	}
	brute := make([][]float64, len(points))
	for pi, p := range points {
		d := make([]float64, len(all))
		for i, e := range all {
			d[i] = e.Box.DistSqToPoint(p)
		}
		sort.Float64s(d)
		brute[pi] = d
	}
	r.logf("  baseline drain-and-sort: %d elements, %d page reads per query", len(all), drainSt.TotalReads)

	set, err := shard.Build(append([]geom.Element(nil), m.Elements...),
		shard.Config{Shards: 4, World: m.Volume, PageCapacity: r.Cfg.NodeCapacity, SeedFanout: r.Cfg.NodeCapacity})
	if err != nil {
		return nil, fmt.Errorf("nn sharded build: %w", err)
	}
	defer set.Close()
	shardDrainSt, err := set.StreamQuery(context.Background(), set.Bounds().Expand(1), shard.StreamOptions{},
		func(geom.Element) bool { return true })
	if err != nil {
		return nil, err
	}

	table := &Table{
		ID: "nn",
		Title: fmt.Sprintf("k-NN best-first traversal vs drain-and-sort (brain model, n=%d, %d query points)",
			n, len(points)),
		Columns: []string{"index", "k", "page reads", "reads/query", "baseline reads/query", "saving"},
		Note: "cold per query (each query counts each page it reads once); every stream asserted nondecreasing and positionally equal " +
			"to the brute-force k nearest by squared distance; baseline = full drain + sort, whose cost is " +
			"k-independent; saving = baseline/NN page reads",
	}

	// checkStream folds parity checking into an emit callback: position
	// pi's stream must match brute[pi] element-for-element.
	checkStream := func(pi int, k int) (func(geom.Element, float64) bool, *int, *error) {
		i := 0
		var failed error
		want := brute[pi]
		prev := -1.0
		return func(e geom.Element, distSq float64) bool {
			if distSq < prev {
				failed = fmt.Errorf("nn point %d k=%d: emission %d distSq %g after %g (order regressed)", pi, k, i, distSq, prev)
				return false
			}
			prev = distSq
			if i >= len(want) || distSq != want[i] {
				failed = fmt.Errorf("nn point %d k=%d: emission %d distSq %g, brute force %g", pi, k, i, distSq, want[i])
				return false
			}
			i++
			return i < k
		}, &i, &failed
	}

	// The unsharded engine, then the sharded K=4 directory
	// (distance-ordered shard visiting), each against its own drain.
	searchers := []struct {
		label string // the table's index column
		drain uint64 // the drain-and-sort baseline's page reads per query
		nn    func(context.Context, geom.Vec3, int, func(geom.Element, float64) bool) (core.QueryStats, error)
	}{
		{"FLAT", drainSt.TotalReads, func(ctx context.Context, p geom.Vec3, _ int, emit func(geom.Element, float64) bool) (core.QueryStats, error) {
			return s.flat.NN(ctx, p, emit)
		}},
		{"FLAT/K=4", shardDrainSt.TotalReads, set.NNQuery},
	}
	for _, k := range nnKs {
		for _, sr := range searchers {
			var reads uint64
			for pi, p := range points {
				emit, got, failed := checkStream(pi, k)
				st, err := sr.nn(context.Background(), p, k, emit)
				if err != nil {
					return nil, err
				}
				reads += st.TotalReads
				if *failed != nil {
					return nil, *failed
				}
				if *got != k {
					return nil, fmt.Errorf("nn %s point %d k=%d: stream ended after %d elements", sr.label, pi, k, *got)
				}
			}
			perQuery := float64(reads) / float64(len(points))
			if perQuery >= float64(sr.drain) {
				return nil, fmt.Errorf("nn %s k=%d: %.1f reads/query, drain-and-sort %d — best-first saved nothing",
					sr.label, k, perQuery, sr.drain)
			}
			table.AddRow(sr.label, fi(k), fu(reads), f1(perQuery), fi(int(sr.drain)),
				f2(float64(sr.drain)/perQuery)+"x")
			r.logf("  %s k=%d: %.1f reads/query (drain %d)", sr.label, k, perQuery, sr.drain)
		}
	}
	return []*Table{table}, nil
}
