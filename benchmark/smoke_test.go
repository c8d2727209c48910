package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables in
// metrics.go: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %q %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for _, pair := range []struct {
		listed  []metric
		defined []metricDef
		bounded bool
	}{{doc.EndToEnd, endToEnd, true}, {doc.PerLayer, perLayer, false}} {
		if len(pair.listed) != len(pair.defined) {
			t.Fatalf("%d metrics listed, %d defined", len(pair.listed), len(pair.defined))
		}
		for i, d := range pair.defined {
			want := metric{d.name, d.unit, d.better, 0}
			if pair.bounded {
				want.Bound = d.bound
			}
			if got := pair.listed[i]; got != want {
				t.Errorf("metric %d: listed %+v, defined %+v", i, got, d)
			}
		}
	}
}

// TestSmoke runs the whole pipeline — build flatserve, set up, verify,
// time, crash and rebuild, ladder and probes — at a size that takes
// seconds, and checks that every named metric comes out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives flatserve")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: 1, n: 5000, phase: time.Second, repoRoot: root, tmp: t.TempDir()}
	defer cfg.cleanup()
	if cfg.flatserve, err = buildFlatserve(root, cfg.tmp); err != nil {
		t.Fatal(err)
	}
	// Counts a run cannot leave at zero (a self value may come out at
	// zero, and a healthy server rejects and cancels nothing).
	positive := map[string]bool{}
	for _, name := range []string{
		"shard.shards_opened_per_op", "core.pages_touched_per_op", "core.object_pages_per_op",
		"core.records_visited_per_op", "core.cold_reads_per_op", "core.elements_examined_per_result",
		"serve.pages_read_per_op", "storage.wal_bytes_per_write",
	} {
		positive[name] = true
	}
	for _, trace := range []bool{false, true} {
		cfg.trace = trace
		for _, w := range workloads {
			rep, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, rep.Failed, rep.Attempted)
			}
			want := append(append([]metricDef(nil), endToEnd...), clientSide...)
			if trace {
				want = perLayer
			} else if w.mixed {
				want = append(want, mixedOnly...)
			}
			for _, d := range want {
				v, ok := rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.name, v)
				case v <= 0 && positive[d.name]:
					t.Errorf("%s trace=%v: count %s = %v", w.name, trace, d.name, v)
				case v <= 0 && d.bound > 0:
					t.Errorf("%s trace=%v: %s is zero", w.name, trace, d.name)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}
