package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"testing"

	"flat/internal/rtree"
)

// tinyConfig keeps the smoke tests fast: two densities, few queries,
// very small Section VIII data sets.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Densities = []int{10000, 20000}
	c.Queries = 10
	c.OtherScale = 1.0 / 2000
	return c
}

func TestExperimentsRegistryComplete(t *testing.T) {
	want := []string{"ablation", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig2", "fig20",
		"fig21", "fig22", "fig23", "fig3", "fig4", "nn", "pagecodec", "serve",
		"shards", "staging", "streammerge", "throughput"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := NewRunner(tinyConfig())
	if _, err := r.Run("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestAllExperimentsProduceTables runs every registered experiment at
// tiny scale and sanity-checks the tables: right number of rows, numeric
// cells parse, every row matches the header width.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test is not short")
	}
	r := NewRunner(tinyConfig())
	for _, id := range Experiments() {
		tables, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		for _, tb := range tables {
			if tb.Title == "" || len(tb.Columns) == 0 {
				t.Fatalf("%s: malformed table", id)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table %q", id, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("%s: row width %d != header width %d in %q",
						id, len(row), len(tb.Columns), tb.Title)
				}
			}
			var buf bytes.Buffer
			tb.Fprint(&buf)
			if !strings.Contains(buf.String(), tb.Title) {
				t.Fatalf("%s: Fprint lost the title", id)
			}
			buf.Reset()
			tb.CSV(&buf)
			lines := strings.Count(buf.String(), "\n")
			if lines != len(tb.Rows)+1 {
				t.Fatalf("%s: CSV has %d lines, want %d", id, lines, len(tb.Rows)+1)
			}
		}
	}
}

// TestDensitySweepShape verifies, at small scale, the core qualitative
// claims the reproduction must preserve: FLAT reads fewer pages than
// every R-tree variant on the SN benchmark, and R-tree reads grow with
// density.
func TestDensitySweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test is not short")
	}
	cfg := tinyConfig()
	cfg.Densities = []int{15000, 45000}
	cfg.Queries = 30
	r := NewRunner(cfg)
	rows, err := r.useCase(cfg.SNFraction)
	if err != nil {
		t.Fatal(err)
	}
	// At the highest density of this quick sweep, FLAT must beat the
	// PR-tree — the paper's best R-tree baseline and the one every
	// Section VIII comparison uses. (Hilbert and STR overtake FLAT only
	// at low densities where overlap is minor; the full-scale sweep,
	// flatbench -fig 12, shows the crossovers.)
	last := rows[len(rows)-1]
	flatReads := last.FLAT.Stats.TotalReads()
	if m := last.RTrees[rtree.PR]; m.Stats.TotalReads() < flatReads {
		t.Errorf("density %d: %v reads %d < FLAT %d",
			last.Density, rtree.PR, m.Stats.TotalReads(), flatReads)
	}
	if len(rows) >= 2 {
		for strat := range rows[0].RTrees {
			if rows[len(rows)-1].RTrees[strat].Stats.TotalReads() <= rows[0].RTrees[strat].Stats.TotalReads() {
				t.Errorf("%v reads did not grow with density", strat)
			}
		}
	}
}

// TestWriteJSON round-trips a table through the BENCH_*.json artifact.
func TestWriteJSON(t *testing.T) {
	tb := &Table{
		ID:      "shards",
		Title:   "demo",
		Columns: []string{"shards", "queries/sec"},
		Note:    "note",
	}
	tb.AddRow("1", "100.0")
	tb.AddRow("2", "180.5")
	dir := t.TempDir()
	path, err := WriteJSON(dir, "shards", []*Table{tb})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_shards.json" {
		t.Errorf("artifact name %q", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Experiment string `json:"experiment"`
		Env        struct {
			GOMAXPROCS int    `json:"gomaxprocs"`
			GoVersion  string `json:"go_version"`
		} `json:"env"`
		Tables []struct {
			ID      string              `json:"id"`
			Columns []string            `json:"columns"`
			Rows    []map[string]string `json:"rows"`
			Note    string              `json:"note"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Experiment != "shards" || len(report.Tables) != 1 {
		t.Fatalf("report shape: %+v", report)
	}
	// Artifacts must carry the machine stamp: parallel speedups are only
	// interpretable next to the GOMAXPROCS they were measured under.
	if report.Env.GOMAXPROCS < 1 || report.Env.GoVersion == "" {
		t.Fatalf("artifact env stamp missing: %+v", report.Env)
	}
	got := report.Tables[0]
	if got.ID != "shards" || got.Note != "note" || len(got.Rows) != 2 {
		t.Fatalf("table shape: %+v", got)
	}
	if got.Rows[1]["queries/sec"] != "180.5" || got.Rows[1]["shards"] != "2" {
		t.Fatalf("row content: %+v", got.Rows[1])
	}
}

func TestMeasurementPerResult(t *testing.T) {
	var m measurement
	if m.PerResult() != 0 {
		t.Error("zero results should give 0")
	}
	m.Results = 10
	m.Stats.Reads[0] = 25
	if m.PerResult() != 2.5 {
		t.Errorf("PerResult = %v", m.PerResult())
	}
}

func TestHistMedian(t *testing.T) {
	h := map[int]int{1: 1, 2: 1, 3: 1}
	if got := histMedian(h); got != 2 {
		t.Errorf("median = %d, want 2", got)
	}
	if got := histMedian(map[int]int{}); got != 0 {
		t.Errorf("empty median = %d", got)
	}
	if got := histMedian(map[int]int{7: 100}); got != 7 {
		t.Errorf("single-bucket median = %d", got)
	}
}

func TestSpeedup(t *testing.T) {
	if s := speedup(50, 100); s != 50 {
		t.Errorf("speedup = %v", s)
	}
	if s := speedup(1, 0); s != 0 {
		t.Errorf("zero-pr speedup = %v", s)
	}
}

func TestTableFormatHelpers(t *testing.T) {
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Errorf("f1 = %q", f1(1.25))
	}
	if f2(3.14159) != "3.14" {
		t.Errorf("f2 = %q", f2(3.14159))
	}
	if f3(2.0) != "2.000" {
		t.Errorf("f3 = %q", f3(2.0))
	}
	if fi(42) != "42" || fu(43) != "43" {
		t.Error("fi/fu")
	}
	if _, err := strconv.Atoi(fi(7)); err != nil {
		t.Error("fi not numeric")
	}
}

func TestQuickConfigSmaller(t *testing.T) {
	q, d := QuickConfig(), DefaultConfig()
	if len(q.Densities) >= len(d.Densities) || q.Queries >= d.Queries {
		t.Error("QuickConfig should be smaller than DefaultConfig")
	}
}
