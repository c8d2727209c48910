package bench

import (
	"fmt"
	"strconv"
	"strings"

	"flat/internal/rtree"
	"flat/internal/storage"
)

// The SN figures (12-15) and LSS figures (16-19) share one measurement
// run each; the Runner caches it.

// sweepFigures are the six figures that print one cell per index per
// density from that shared run; they differ in the workload, the cell
// and the claim. Each note states the paper's claim and then what this
// reproduction shows: read off the table's own rows where a figure has
// a here function, typed from the default 50k-450k sweep otherwise
// (README, "Running the benchmarks", has the whole ledger;
// TestPaperClaims asserts the claims that hold).
var sweepFigures = map[string]struct {
	workload string // "SN" or "LSS"
	metric   string // title suffix
	cell     func(measurement) string
	timed    bool // cells are wall-clock
	results  bool // lead with the result-count column
	note     string
	// here, when set, completes note from the table's own rows.
	here func([]useCaseRow) string
}{
	"fig12": {workload: "SN", metric: "total page reads", cell: readsCell,
		note: "paper: FLAT lowest; PR 8x FLAT at the densest point; Hilbert worst; here: ", here: readsNote},
	"fig13": {workload: "SN", metric: "execution time (ms)", cell: timeCell, timed: true,
		note: "paper: time tracks page reads (I/O bound); FLAT lowest and linear; " +
			"here: pages live in memory, so this is CPU time — wall-clock, machine-dependent and not gated; read fig12 instead"},
	"fig15": {workload: "SN", metric: "page reads per result element", cell: perResultCell, results: true,
		note: "paper: FLAT per-result cost falls with density; R-trees rise; " +
			"here: FLAT falls (6.86 -> 1.67 over 50k-450k), and so does every R-tree (PR 23.0 -> 6.1) — the rise is not reproduced"},
	"fig16": {workload: "LSS", metric: "total page reads", cell: readsCell,
		note: "paper: FLAT lowest; gap smaller than SN (overlap amortized on big queries); here: ", here: readsNote},
	"fig17": {workload: "LSS", metric: "execution time (ms)", cell: timeCell, timed: true,
		note: "paper: time tracks page reads; FLAT 2-6x faster than best R-tree; " +
			"here: not reproduced — pages live in memory, so this is CPU time, wall-clock and not gated, " +
			"and FLAT is not faster than STR or Hilbert; read fig16 instead"},
	"fig19": {workload: "LSS", metric: "page reads per result element", cell: perResultCell, results: true,
		note: "paper: FLAT per-result reads fall with density; PR-Tree's grow; " +
			"here: FLAT falls (0.201 -> 0.132 over 50k-450k), and so does the PR-tree (0.405 -> 0.207) — the growth is not reproduced"},
}

// readsNote is the "here:" half of the fig12 and fig16 notes, read off
// their rows: where FLAT reads fewer pages than the PR-tree and than all
// three R-trees, the PR-tree's reads over FLAT's at the densest row, and
// which index reads the most there.
func readsNote(rows []useCaseRow) string {
	if len(rows) == 0 {
		return "no rows"
	}
	var belowPR, lowest []int
	for _, row := range rows {
		flat, low := row.FLAT.Stats.TotalReads(), true
		for _, m := range row.RTrees {
			low = low && flat < m.Stats.TotalReads()
		}
		if flat < row.RTrees[rtree.PR].Stats.TotalReads() {
			belowPR = append(belowPR, row.Density)
		}
		if low {
			lowest = append(lowest, row.Density)
		}
	}
	last := rows[len(rows)-1]
	worst, most := "FLAT", last.FLAT.Stats.TotalReads()
	for _, strat := range []rtree.Strategy{rtree.PR, rtree.STR, rtree.Hilbert} {
		if n := last.RTrees[strat].Stats.TotalReads(); n > most {
			worst, most = strat.String(), n
		}
	}
	return fmt.Sprintf("FLAT below the PR-tree %s (PR %.1fx FLAT at %s); FLAT lowest of the four %s; %s worst at %s; "+
		"FLAT's neighbor pointers carry boxes (an extension; the ablation runs the paper's bare ones)",
		densities(belowPR, len(rows)),
		float64(last.RTrees[rtree.PR].Stats.TotalReads())/float64(last.FLAT.Stats.TotalReads()), densityLabel(last.Density),
		densities(lowest, len(rows)), worst, densityLabel(last.Density))
}

// densities names a subset of a sweep of total rows.
func densities(ns []int, total int) string {
	switch len(ns) {
	case total:
		return "at every density"
	case 0:
		return "at no density"
	}
	labels := make([]string, len(ns))
	for i, n := range ns {
		labels[i] = densityLabel(n)
	}
	return "only at " + strings.Join(labels, ", ")
}

// densityLabel writes an element count the way the notes do: 450k, 1.35M.
func densityLabel(n int) string {
	if n >= 1e6 {
		return strconv.FormatFloat(float64(n)/1e6, 'f', -1, 64) + "M"
	}
	return strconv.FormatFloat(float64(n)/1e3, 'f', -1, 64) + "k"
}

func readsCell(m measurement) string     { return fu(m.Stats.TotalReads()) }
func timeCell(m measurement) string      { return ms(m.Elapsed) }
func perResultCell(m measurement) string { return f3(m.PerResult()) }

// fraction returns the query volume fraction of the named workload.
func (r *Runner) fraction(workload string) float64 {
	if workload == "LSS" {
		return r.Cfg.LSSFraction
	}
	return r.Cfg.SNFraction
}

// sweepFigure returns the registry entry that renders sweepFigures[id].
func sweepFigure(id string) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		f := sweepFigures[id]
		rows, err := r.useCase(r.fraction(f.workload))
		if err != nil {
			return nil, err
		}
		// The paper's column order; Strategy.String() is the column name.
		order := []rtree.Strategy{rtree.PR, rtree.STR, rtree.Hilbert}
		indexes := []string{"FLAT"}
		for _, strat := range order {
			indexes = append(indexes, strat.String())
		}
		t := &Table{
			ID:      id,
			Title:   fmt.Sprintf("%s benchmark: %s", f.workload, f.metric),
			Columns: []string{"density"},
			Note:    f.note,
		}
		if f.here != nil {
			t.Note += f.here(rows)
		}
		if f.results {
			t.Columns = append(t.Columns, "results")
		}
		t.Columns = append(t.Columns, indexes...)
		if f.timed {
			t.Timed = indexes
		}
		for _, row := range rows {
			cells := []string{fi(row.Density)}
			if f.results {
				cells = append(cells, fu(row.FLAT.Results))
			}
			cells = append(cells, f.cell(row.FLAT))
			for _, strat := range order {
				cells = append(cells, f.cell(row.RTrees[strat]))
			}
			t.AddRow(cells...)
		}
		return []*Table{t}, nil
	}
}

// benchBreakdown renders the Figure 14/18 panels: data retrieved by page
// category for FLAT (seed tree / metadata / object pages) and for the
// PR-tree (non-leaf / leaf pages).
func (r *Runner) benchBreakdown(id, name string) ([]*Table, error) {
	rows, err := r.useCase(r.fraction(name))
	if err != nil {
		return nil, err
	}
	const mb = float64(1 << 20)
	left := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s benchmark: FLAT data retrieved breakdown (MB)", name),
		Columns: []string{"density", "seed tree", "metadata", "object", "total"},
		Note:    "paper: seed share constant; metadata+object grow with the result size; here: holds",
	}
	right := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s benchmark: PR-Tree data retrieved breakdown (MB)", name),
		Columns: []string{"density", "non-leaf", "leaf", "total", "nonleaf/leaf"},
		Note:    "paper: non-leaf/leaf ratio grows with density (overlap); here: not reproduced — the ratio falls with density on both workloads",
	}
	for _, row := range rows {
		fs := row.FLAT.Stats
		left.AddRow(fi(row.Density),
			f3(float64(fs.BytesReadBy(storage.CatSeedInternal))/mb),
			f3(float64(fs.BytesReadBy(storage.CatMetadata))/mb),
			f3(float64(fs.BytesReadBy(storage.CatObject))/mb),
			f3(float64(fs.BytesRead())/mb),
		)
		ps := row.RTrees[rtree.PR].Stats
		nonleaf := float64(ps.BytesReadBy(storage.CatRTreeInternal))
		leaf := float64(ps.BytesReadBy(storage.CatRTreeLeaf))
		ratio := 0.0
		if leaf > 0 {
			ratio = nonleaf / leaf
		}
		right.AddRow(fi(row.Density),
			f3(nonleaf/mb), f3(leaf/mb), f3((nonleaf+leaf)/mb), f2(ratio))
	}
	return []*Table{left, right}, nil
}

func (r *Runner) fig14() ([]*Table, error) {
	return r.benchBreakdown("fig14", "SN")
}

func (r *Runner) fig18() ([]*Table, error) {
	return r.benchBreakdown("fig18", "LSS")
}
