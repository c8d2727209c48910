package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

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
// (frames dropped) like every other figure.
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
	s.flat.Pool().DropFrames()
	all, drainSt, err := s.flat.RangeQuery(s.flat.Bounds().Expand(1))
	if err != nil {
		return nil, err
	}
	drainReads := drainSt.TotalReads
	brute := make([][]float64, len(points))
	for pi, p := range points {
		d := make([]float64, len(all))
		for i, e := range all {
			d[i] = e.Box.DistSqToPoint(p)
		}
		sort.Float64s(d)
		brute[pi] = d
	}
	r.logf("  baseline drain-and-sort: %d elements, %d page reads per query", len(all), drainReads)

	set, err := shard.Build(append([]geom.Element(nil), m.Elements...),
		shard.Config{Shards: 4, World: m.Volume, PageCapacity: r.Cfg.NodeCapacity, SeedFanout: r.Cfg.NodeCapacity})
	if err != nil {
		return nil, fmt.Errorf("nn sharded build: %w", err)
	}
	defer set.Close()
	set.DropCache()
	shardDrainSt, err := set.StreamQuery(context.Background(), set.Bounds().Expand(1), shard.StreamOptions{},
		func(geom.Element) bool { return true })
	if err != nil {
		return nil, err
	}
	shardDrainReads := shardDrainSt.TotalReads

	table := &Table{
		ID: "nn",
		Title: fmt.Sprintf("k-NN best-first traversal vs drain-and-sort (brain model, n=%d, %d query points)",
			n, len(points)),
		Columns: []string{"index", "k", "page reads", "reads/query", "baseline reads/query", "saving"},
		Note: "cold per query (frames dropped); every stream asserted nondecreasing and positionally equal " +
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

	for _, k := range nnKs {
		// Unsharded engine.
		var reads uint64
		for pi, p := range points {
			s.flat.Pool().DropFrames()
			emit, got, failed := checkStream(pi, k)
			st, err := s.flat.NN(context.Background(), p, emit)
			if err != nil {
				return nil, err
			}
			reads += st.TotalReads
			if *failed != nil {
				return nil, *failed
			}
			if *got != k {
				return nil, fmt.Errorf("nn point %d k=%d: stream ended after %d elements", pi, k, *got)
			}
		}
		perQuery := float64(reads) / float64(len(points))
		if perQuery >= float64(drainReads) {
			return nil, fmt.Errorf("nn k=%d: %.1f reads/query, drain-and-sort %d — best-first saved nothing",
				k, perQuery, drainReads)
		}
		table.AddRow("FLAT", fi(k), fu(reads), f1(perQuery), fi(int(drainReads)),
			f2(float64(drainReads)/perQuery)+"x")

		// Sharded K=4 directory: distance-ordered shard visiting.
		var shardReads uint64
		for pi, p := range points {
			set.DropCache()
			emit, got, failed := checkStream(pi, k)
			st, err := set.NNQuery(context.Background(), p, k, emit)
			if err != nil {
				return nil, err
			}
			if *failed != nil {
				return nil, *failed
			}
			if *got != k {
				return nil, fmt.Errorf("nn sharded point %d k=%d: stream ended after %d elements", pi, k, *got)
			}
			shardReads += st.TotalReads
		}
		perQuery = float64(shardReads) / float64(len(points))
		if perQuery >= float64(shardDrainReads) {
			return nil, fmt.Errorf("nn sharded k=%d: %.1f reads/query, drain-and-sort %d — best-first saved nothing",
				k, perQuery, shardDrainReads)
		}
		table.AddRow("FLAT/K=4", fi(k), fu(shardReads), f1(perQuery), fi(int(shardDrainReads)),
			f2(float64(shardDrainReads)/perQuery)+"x")
		r.logf("  k=%d: %.1f reads/query unsharded, %.1f sharded (drain %d / %d)",
			k, float64(reads)/float64(len(points)), float64(shardReads)/float64(len(points)),
			drainReads, shardDrainReads)
	}
	return []*Table{table}, nil
}
