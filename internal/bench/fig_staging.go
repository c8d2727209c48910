package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flat/internal/datagen"
	"flat/internal/geom"
	"flat/internal/shard"
)

// stagingK fixes the shard count of the staging experiment: the delta
// probe cost under study is per-set, not a function of K, so one
// representative K keeps the sweep one-dimensional.
const stagingK = 4

// stagedIDBase is the first ID the experiment stages under — far above
// any model element's, so a result's ID tells which side it came from.
const stagedIDBase = uint64(1) << 40

// staging measures what a query pays for the staged-update overlay as
// the pending delta grows. One K=4 set is built over the brain model
// and fed staged inserts; at each delta size the experiment reports the
// overlay work a query examines and the warm whole-query latency,
// asserting on every query at every step that the staged tail of the
// result is, element for element, the brute-force filter of the staged
// slice.
//
// The "examined" column counts the overlay candidates a query's staged
// probe visits: the staged inserts whose boxes intersect the query — the
// staged runs' exact hit set. It is derived from the
// staged set and the query boxes, so the column is deterministic across
// machines; the latency column is wall-clock and machine-dependent.
func (r *Runner) staging() ([]*Table, error) {
	n := r.Cfg.Densities[len(r.Cfg.Densities)-1]
	m := r.model(n)
	queries := datagen.Queries(datagen.QuerySpec{
		Count:          r.Cfg.Queries,
		World:          m.Volume,
		VolumeFraction: r.Cfg.LSSFraction,
		Seed:           r.Cfg.Seed + 200,
	})

	// Delta sweep as fractions of the base so the experiment scales with
	// -densities: the last step is a delta as large as the index itself.
	deltas := []int{0, n / 16, n / 4, n}
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 201))

	set, err := shard.Build(append([]geom.Element(nil), m.Elements...), shard.Config{
		Shards:       stagingK,
		PageCapacity: r.Cfg.NodeCapacity,
		SeedFanout:   r.Cfg.NodeCapacity,
		World:        m.Volume,
	})
	if err != nil {
		return nil, fmt.Errorf("staging build: %w", err)
	}
	defer set.Close()

	table := &Table{
		ID: "staging",
		Title: fmt.Sprintf("Staged-update overlay cost vs delta size (brain model, n=%d, K=%d, %d LSS queries)",
			n, stagingK, len(queries)),
		Columns: []string{"delta", "examined/query", "us/query", "results/query"},
		Timed:   []string{"us/query"},
		Note: "the overlay probes the runs of packed staged inserts over one staging-order list. " +
			"\"examined\" is the exact overlay candidate count (deterministic); latency is wall-clock. " +
			"Every query's staged tail is asserted element-for-element against a brute-force filter of the staged inserts at every delta size.",
	}

	ctx := context.Background()
	var staged []geom.Element
	for _, target := range deltas {
		if target < len(staged) {
			continue // duplicate step at tiny -densities
		}
		// Grow the delta to the target: clones of random base elements
		// under fresh IDs, so the delta's spatial distribution matches
		// the data's.
		batch := make([]geom.Element, 0, target-len(staged))
		for len(staged)+len(batch) < target {
			src := m.Elements[rng.Intn(len(m.Elements))]
			batch = append(batch, geom.Element{
				ID:  stagedIDBase + uint64(len(staged)+len(batch)),
				Box: src.Box,
			})
		}
		if len(batch) > 0 {
			if err := set.StageInsert(batch...); err != nil {
				return nil, err
			}
			staged = append(staged, batch...)
		}

		// Parity and the examined/results columns.
		var matched, results uint64
		for _, q := range queries {
			got, err := collectSet(ctx, set, q)
			if err != nil {
				return nil, err
			}
			var want []geom.Element
			for _, e := range staged {
				if e.Box.Intersects(q) {
					want = append(want, e)
				}
			}
			bulk := len(got) - len(want)
			if bulk < 0 {
				return nil, fmt.Errorf("staging delta=%d: %d results, fewer than the %d staged inserts the query intersects", len(staged), len(got), len(want))
			}
			for i, e := range got {
				if i < bulk && e.ID >= stagedIDBase {
					return nil, fmt.Errorf("staging delta=%d: staged insert %d delivered before the bulkloaded results end", len(staged), e.ID)
				}
				if i >= bulk && e != want[i-bulk] {
					return nil, fmt.Errorf("staging delta=%d: staged tail diverges from brute force at element %d", len(staged), i-bulk)
				}
			}
			results += uint64(len(got))
			matched += uint64(len(want))
		}
		nq := uint64(len(queries))

		// Warm latency.
		const passes = 3
		for _, q := range queries { // warm-up
			if _, err := collectSet(ctx, set, q); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for _, q := range queries {
				if _, err := collectSet(ctx, set, q); err != nil {
					return nil, err
				}
			}
		}
		us := float64(time.Since(t0).Microseconds()) / float64(passes*len(queries))

		r.logf("  staging delta=%d: %d examined %.1fus", len(staged), matched/nq, us)
		table.AddRow(fi(len(staged)), fu(matched/nq), f1(us), fu(results/nq))
	}
	return []*Table{table}, nil
}

// collectSet drains a range query on set into a slice.
func collectSet(ctx context.Context, set *shard.Set, q geom.MBR) ([]geom.Element, error) {
	var out []geom.Element
	_, err := set.StreamQuery(ctx, q, shard.StreamOptions{}, func(e geom.Element) bool {
		out = append(out, e)
		return true
	})
	return out, err
}
