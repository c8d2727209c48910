// Package bench is the reproduction harness for the paper's evaluation:
// one experiment per figure/table of Sections III, VII and VIII. Each
// experiment builds the required indexes over synthetic data sets,
// replays the paper's micro-benchmarks with cold caches, and renders the
// same rows/series the paper plots.
//
// Experiments() is the inventory (see README.md, "Running the
// benchmarks"); recorded results are the root BENCH_*.json files, which
// Check re-runs and compares cell by cell.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment result: a titled grid with a header
// row. Experiments return tables rather than printing directly so the
// CLI, the Go benchmarks and the tests can all consume them.
type Table struct {
	ID      string // experiment id, e.g. "fig12"
	Title   string
	Columns []string
	Rows    [][]string
	// Timed names the wall-clock (machine-dependent) columns. Every
	// other column is a count or a ratio of counts: it repeats exactly
	// for one Config, and Check gates it.
	Timed []string
	// Note carries caveats (scaling, substitutions) shown under the table.
	Note string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f1, f2, f3 format floats with fixed decimals; fi formats ints.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
func fu(v uint64) string  { return fmt.Sprintf("%d", v) }
