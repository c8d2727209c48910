// Command flatbench reproduces the paper's evaluation: one experiment
// per figure/table of "Accelerating Range Queries for Brain Simulations"
// (ICDE 2012). Each experiment generates its data sets, builds the
// required indexes (FLAT plus the Hilbert/STR/Priority R-tree
// baselines), replays the micro-benchmarks with cold caches, and prints
// the figure's rows.
//
// Usage:
//
//	flatbench -fig 12                      # one experiment
//	flatbench -fig 2,12,15 -v              # several, with progress logging
//	flatbench -fig all -quick              # the full suite at smoke-test scale
//	flatbench -fig all -csv out/           # also write each table as CSV
//	flatbench -fig throughput -workers 1,8 # concurrent-serving throughput
//
// See README.md, "Running the benchmarks"; recorded results are the
// BENCH_*.json files at the repository root.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"flat/internal/bench"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated experiment ids (e.g. 2,12,20) or 'all'")
		quick     = flag.Bool("quick", false, "run at smoke-test scale (3 densities, 40 queries)")
		verbose   = flag.Bool("v", false, "log progress to stderr")
		csvDir    = flag.String("csv", "", "directory to also write each table as CSV")
		queries   = flag.Int("queries", 0, "queries per micro-benchmark (default 200; 40 with -quick)")
		densities = flag.String("densities", "", "comma-separated element counts (default 50000..450000)")
		nodeCap   = flag.Int("nodecap", 0, "entries per node/page for all indexes (default 16; 0 keeps default)")
		scale     = flag.Float64("otherscale", 0, "scale factor for the Section VIII data sets (default 1/200)")
		workers   = flag.String("workers", "", "comma-separated worker counts for the throughput experiment (default 1,4,8,16)")
		shards    = flag.String("shards", "", "comma-separated shard counts for the shards/streammerge experiments (default 1,2,4,8)")
		prefetch  = flag.String("prefetch", "", "comma-separated shard-prefetch widths for the streammerge experiment (default 0,2,4; the sequential baseline 0 is always run)")
		jsonDir   = flag.String("json", "", "directory to also write each experiment as machine-readable BENCH_<experiment>.json")
		seed      = flag.Int64("seed", 0, "generator seed (default 1)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *densities != "" {
		cfg.Densities = intList(*densities, 1, "density")
	}
	if *nodeCap > 0 {
		cfg.NodeCapacity = *nodeCap
	}
	if *scale > 0 {
		cfg.OtherScale = *scale
	}
	if *workers != "" {
		cfg.Workers = intList(*workers, 1, "worker count")
	}
	if *shards != "" {
		cfg.Shards = intList(*shards, 1, "shard count")
	}
	if *prefetch != "" {
		// 0 is legal here: it is the sequential baseline.
		cfg.Prefetch = intList(*prefetch, 0, "prefetch width")
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	runner := bench.NewRunner(cfg)
	if *verbose {
		runner.Log = os.Stderr
	}

	var ids []string
	if *figs == "all" {
		ids = bench.Experiments()
	} else {
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			// Bare figure numbers get the "fig" prefix; named experiments
			// (ablation, throughput) pass through untouched.
			if _, err := strconv.Atoi(f); err == nil {
				f = "fig" + f
			}
			ids = append(ids, f)
		}
	}

	for _, id := range ids {
		tables, err := runner.Run(id)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		if *jsonDir != "" {
			if _, err := bench.WriteJSON(*jsonDir, id, tables); err != nil {
				fatalf("json: %v", err)
			}
		}
		for i, t := range tables {
			t.Fprint(os.Stdout)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fatalf("csv dir: %v", err)
				}
				name := fmt.Sprintf("%s_%d.csv", id, i)
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					fatalf("csv: %v", err)
				}
				t.CSV(f)
				if err := f.Close(); err != nil {
					fatalf("csv: %v", err)
				}
			}
		}
	}
}

// intList parses a comma-separated list of integers, each at least min;
// what names the value in the error.
func intList(list string, min int, what string) []int {
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < min {
			fatalf("bad %s %q", what, s)
		}
		out = append(out, n)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flatbench: "+format+"\n", args...)
	os.Exit(1)
}
