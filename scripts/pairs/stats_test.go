package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestQuartiles(t *testing.T) {
	// Even N interpolates between the middle ranks.
	if s := summarize([]float64{4, 1, 3, 2}); s != (summary{median: 2.5, q1: 1.75, q3: 3.25}) {
		t.Errorf("1..4: %+v", s)
	}
	if s := summarize([]float64{5, 1, 3}); s != (summary{median: 3, q1: 2, q3: 4}) {
		t.Errorf("1, 3, 5: %+v", s)
	}
	if s := summarize([]float64{7}); s != (summary{median: 7, q1: 7, q3: 7}) {
		t.Errorf("one run: %+v", s)
	}
}

// tenRuns is 10, 11, …, 19: median 14.5, quartiles 12.25 and 16.75, so
// the parent's interquartile range is 4.5.
func tenRuns(shift float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = 10 + float64(i) + shift
	}
	return xs
}

func TestCompare(t *testing.T) {
	parent := tenRuns(0)
	for _, c := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		w, l, ties  int
		verdict     string
	}{
		{"every pair 5 lower", tenRuns(-5), true, 10, 0, 0, "better"},
		{"every pair 5 higher, higher is better", tenRuns(5), false, 10, 0, 0, "better"},
		{"every pair 5 higher, lower is better", tenRuns(5), true, 0, 10, 0, "worse"},
		// Ten wins, but the medians differ by less than the parent's IQR.
		{"every pair 1 lower", tenRuns(-1), true, 10, 0, 0, "unresolved"},
		// A tie counts for neither side: 9 wins of 10 still claims.
		{"nine lower, one tie", append(tenRuns(-5)[:9], 19), true, 9, 0, 1, "better"},
		// Two ties leave 8 wins of 10, short of nine tenths.
		{"eight lower, two ties", append(tenRuns(-5)[:8], 18, 19), true, 8, 0, 2, "unresolved"},
		{"every pair tied", tenRuns(0), true, 0, 0, 10, "equal"},
	} {
		got := compare(parent, c.change, c.lowerBetter)
		if got.wins != c.w || got.losses != c.l || got.ties != c.ties || got.verdict() != c.verdict {
			t.Errorf("%s: %d/%d/%d %s, want %d/%d/%d %s", c.name, got.wins, got.losses, got.ties, got.verdict(), c.w, c.l, c.ties, c.verdict)
		}
	}
}

func TestReadRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m, err := readRun(write("json.txt", "warming up\n{\"failed\":1}\n"+
		`{"attempted":9,"correct":false,"failed":2,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"qps":{"value":100,"unit":"1/s"}}}`+"\n"))
	if err != nil || len(m) != 3 || m["setup_s"] != 0.5 || m["qps"] != 100 || m["failed"] != 2 {
		t.Errorf("JSON run: %v, %v", m, err)
	}
	m, err = readRun(write("bench.txt", "goos: linux\nBenchmarkStreamDrain-2   \t     200\t    800945 ns/op\t       181.1 ns/result\t    6381 B/op\t      11 allocs/op\nPASS\n"))
	if err != nil || len(m) != 4 || m["BenchmarkStreamDrain-2 ns/result"] != 181.1 || m["BenchmarkStreamDrain-2 allocs/op"] != 11 {
		t.Errorf("bench run: %v, %v", m, err)
	}
	if _, err := readRun(write("empty.txt", "PASS\n")); err == nil {
		t.Error("a run with no metrics was accepted")
	}
}
