package bench

import (
	"time"

	"flat/internal/rtree"
	"flat/internal/storage"
)

func ms(d time.Duration) string { return f1(float64(d.Microseconds()) / 1000) }

// fig10 reproduces Figure 10: overall time to index for data sets of
// increasing density, for the three R-trees and FLAT, with FLAT's
// partitioning / neighbor-finding breakdown.
func (r *Runner) fig10() ([]*Table, error) {
	builds := []string{"Hilbert R-Tree", "STR R-Tree", "PR-Tree",
		"FLAT partition", "FLAT neighbors", "FLAT total"}
	t := &Table{
		ID:      "fig10",
		Title:   "Index build time vs density (ms)",
		Columns: append([]string{"density"}, builds...),
		Timed:   builds,
		Note:    "paper: Hilbert < STR <= FLAT << PR-Tree; all linear in density; here: wall-clock, not gated — the PR-tree builds 14-20x slower than FLAT, the other three are within noise of each other",
	}
	for _, n := range r.Cfg.Densities {
		s, err := r.set(n)
		if err != nil {
			return nil, err
		}
		bs := s.flat.BuildStats()
		t.AddRow(fi(n),
			ms(s.buildTime[rtree.Hilbert.String()]),
			ms(s.buildTime[rtree.STR.String()]),
			ms(s.buildTime[rtree.PR.String()]),
			ms(bs.PartitionTime),
			ms(bs.NeighborTime),
			ms(bs.TotalTime),
		)
	}
	return []*Table{t}, nil
}

// fig11 reproduces Figure 11: index size for data sets of increasing
// density — FLAT (object pages vs seed tree + metadata) against the
// PR-tree (leaf vs non-leaf nodes).
func (r *Runner) fig11() ([]*Table, error) {
	t := &Table{
		ID:    "fig11",
		Title: "Index size vs density (MB)",
		Columns: []string{"density",
			"FLAT object", "FLAT seed+meta", "FLAT total",
			"PR leaf", "PR non-leaf", "PR total"},
		Note: "paper: FLAT slightly larger than the R-tree (metadata); both linear in density; " +
			"here: both linear, but FLAT is within 4% of the PR-tree and smaller at 8 of the 9 densities",
	}
	const mb = float64(1 << 20)
	pageMB := func(pages int) string {
		return f2(float64(pages) * storage.PageSize / mb)
	}
	for _, n := range r.Cfg.Densities {
		s, err := r.set(n)
		if err != nil {
			return nil, err
		}
		obj, meta, seed := s.flat.PageCounts()
		leaf, internal := s.trees[rtree.PR].PageCounts()
		t.AddRow(fi(n),
			pageMB(obj), pageMB(meta+seed), pageMB(obj+meta+seed),
			pageMB(leaf), pageMB(internal), pageMB(leaf+internal),
		)
	}
	return []*Table{t}, nil
}
