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
//	flatbench -fig nn -quick -json .       # (re-)record BENCH_nn.json
//	flatbench -check .                     # the regression gate (make bench-check)
//
// -check DIR re-runs every BENCH_*.json under DIR at the configuration
// the file itself records and fails unless every cell outside the
// file's timed (wall-clock) columns matches exactly. See README.md,
// "Running the benchmarks"; the committed baselines are the
// BENCH_*.json files at the repository root.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flat/internal/bench"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated experiment ids (e.g. 2,12,20) or 'all'")
		quick     = flag.Bool("quick", false, "run at smoke-test scale (3 densities, 40 queries, -otherscale 0.001)")
		verbose   = flag.Bool("v", false, "log progress to stderr")
		queries   = flag.Int("queries", 0, "queries per micro-benchmark (default 200; 40 with -quick)")
		densities = flag.String("densities", "", "comma-separated element counts (default 50000..450000)")
		nodeCap   = flag.Int("nodecap", 0, "entries per node/page for all indexes (default 16; 0 keeps default)")
		scale     = flag.Float64("otherscale", 0, "scale factor for the Section VIII data sets (default 1/200; 1/1000 with -quick)")
		shards    = flag.String("shards", "", "comma-separated shard counts for the shards experiment (default 1,2,4,8)")
		jsonDir   = flag.String("json", "", "directory to also write each experiment as machine-readable BENCH_<experiment>.json")
		seed      = flag.Int64("seed", 0, "generator seed (default 1)")
		check     = flag.String("check", "", "re-run every BENCH_*.json in this directory at its own recorded configuration and fail unless every non-timed cell matches; a mode, not an option: no other flag applies")
	)
	flag.Parse()

	if *check != "" {
		if flag.NFlag() > 1 {
			fatalf("-check re-runs each file at the configuration it records; no other flag applies")
		}
		if err := bench.Check(*check, os.Stdout); err != nil {
			fatalf("check failed:\n%v", err)
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *densities != "" {
		cfg.Densities = intList(*densities, "density")
	}
	if *nodeCap > 0 {
		cfg.NodeCapacity = *nodeCap
	}
	if *scale > 0 {
		cfg.OtherScale = *scale
	}
	if *shards != "" {
		cfg.Shards = intList(*shards, "shard count")
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
			// (ablation, shards) pass through untouched.
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
			if _, err := bench.WriteJSON(*jsonDir, id, cfg, tables); err != nil {
				fatalf("json: %v", err)
			}
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}
}

// intList parses a comma-separated list of positive integers; what names
// the value in the error.
func intList(list, what string) []int {
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
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
