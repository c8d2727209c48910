// Command benchmark is the served-query benchmark: it generates a brain
// model and four query workloads from a seed, bulkloads the sharded
// index, drives the real cmd/flatserve binary as a child process over
// loopback TCP, checks the answers against a brute-force oracle, and
// reports what a client of the server sees — and, with -trace 1, where
// the time goes layer by layer. See README.md.
//
//	bash benchmark/run.sh --workload lss_stream --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1                 # all four workloads
//	bash benchmark/run.sh -seed 1 -selfcheck      # twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's settings and its live resources.
type config struct {
	seed  int64
	n     int           // model size: fullElements, but for the smoke test
	phase time.Duration // the timed phase
	trace bool

	repoRoot  string
	tmp       string // scratch for this run, inside the checkout, removed on exit
	flatserve string // the built server binary

	mu   sync.Mutex
	kids []*child // every server started, for the exit paths (kill is idempotent)
}

func (cfg *config) startServer(dir string) (*child, error) {
	c, err := startServer(cfg.flatserve, dir)
	if err != nil {
		return nil, err
	}
	cfg.mu.Lock()
	cfg.kids = append(cfg.kids, c)
	cfg.mu.Unlock()
	return c, nil
}

// cleanup kills every server still alive and removes the scratch
// directory. It runs on every exit path: return, panic and signal.
func (cfg *config) cleanup() {
	cfg.mu.Lock()
	defer cfg.mu.Unlock()
	for _, c := range cfg.kids {
		c.kill()
	}
	cfg.kids = nil
	if cfg.tmp != "" {
		os.RemoveAll(cfg.tmp)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "all", "one of sn_point, lss_stream, lss_count, mixed_rw; or all")
		seed      = flag.Int64("seed", 1, "seed of the generated model, queries and writes")
		seconds   = flag.Float64("seconds", 20, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1: run the layer ladder and report per-layer metrics instead of end-to-end ones")
		out       = flag.String("out", "", "also write the report as JSON to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end suite twice and fail if any metric differs by more than its bound")
		root      = flag.String("root", "", "the repository checkout (default: found from the working directory)")
	)
	flag.Parse()

	cfg := &config{seed: *seed, n: fullElements, phase: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0}
	if cfg.phase < 100*time.Millisecond {
		return fail("need -seconds >= 0.1")
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		return fail("unknown workload %q", *name)
	}
	var err error
	if cfg.repoRoot, err = findRoot(*root); err != nil {
		return fail("%v", err)
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "WARNING: fewer than 2 CPUs: the server and the load generator share one core; every latency below is inflated and unsteady")
	}

	defer cfg.cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cfg.cleanup()
		os.Exit(130)
	}()

	build := filepath.Join(cfg.repoRoot, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail("%v", err)
	}
	if cfg.tmp, err = os.MkdirTemp(build, "run-"); err != nil {
		return fail("%v", err)
	}
	if cfg.flatserve, err = buildFlatserve(cfg.repoRoot, build); err != nil {
		return fail("%v", err)
	}

	suite := func() ([]*report, error) {
		var reps []*report
		for _, w := range run {
			rep, err := runWorkload(cfg, w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.print(os.Stdout)
			reps = append(reps, rep)
		}
		return reps, nil
	}
	doc := document{Env: stampEnv(cfg)}
	if doc.Runs, err = suite(); err != nil {
		return fail("%v", err)
	}
	code := 0
	if *selfcheck {
		again, err := suite()
		if err != nil {
			return fail("%v", err)
		}
		if !compare(os.Stdout, doc.Runs, again) {
			code = 1
		}
		doc.Runs = append(doc.Runs, again...)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			return fail("write %s: %v", *out, err)
		}
	}
	for _, rep := range doc.Runs {
		if rep.Failed > 0 {
			code = 1
		}
	}
	// The driver's contract: one workload, one JSON object, last line.
	if len(run) == 1 && !*selfcheck {
		line, err := json.Marshal(doc.Runs[0].result())
		if err != nil {
			return fail("%v", err)
		}
		fmt.Println(string(line))
		return 0 // failed operations are in the object, not the exit code
	}
	return code
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 1
}

// findRoot locates the flat checkout: the given directory, else the
// working directory or its parent (go run from benchmark/).
func findRoot(given string) (string, error) {
	tries := []string{given}
	if given == "" {
		tries = []string{".", ".."}
	}
	for _, dir := range tries {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "flatserve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no cmd/flatserve under %v: run from the flat checkout or pass -root", tries)
}

// env stamps a report with what it ran on.
type env struct {
	Seed       int64   `json:"seed"`
	Elements   int     `json:"elements"`
	Seconds    float64 `json:"timed_phase_s"`
	Commit     string  `json:"git_commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
}

func stampEnv(cfg *config) env {
	e := env{
		Seed: cfg.seed, Elements: cfg.n, Seconds: cfg.phase.Seconds(),
		Commit: "unknown", Kernel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = cfg.repoRoot
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// document is the -out file.
type document struct {
	Env  env       `json:"env"`
	Runs []*report `json:"runs"`
}

// report is one workload's run: every metric it produced, by name.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is how many timed-phase samples stand behind a latency
	// metric (absent for metrics that are not percentiles).
	Samples map[string]int `json:"samples,omitempty"`

	defs []metricDef // what to print, in order
}

func (rep *report) set(name string, v float64) { rep.Metrics[name] = v }

func (rep *report) print(w *os.File) {
	fmt.Fprintf(w, "== %s  (attempted %d, failed %d, failed_ops_pct %.4f)\n",
		rep.Workload, rep.Attempted, rep.Failed, 100*float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, d := range rep.defs {
		v, ok := rep.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.name, v, d.unit)
		if n, ok := rep.Samples[d.name]; ok {
			fmt.Fprintf(w, " n=%-7d", n)
		}
		switch {
		case gated(d.name):
			fmt.Fprintf(w, " gated: may worsen by %.0f%%", 100*d.bound)
		case d.bound > 0:
			fmt.Fprint(w, " unresolved on this box, not gated")
		}
		fmt.Fprintln(w)
	}
}

// result is the driver's object: exactly the metrics BENCHMARK.json
// lists for this mode.
func (rep *report) result() map[string]any {
	listed := endToEnd
	if rep.Trace {
		listed = perLayer
	}
	metrics := map[string]any{}
	for _, d := range listed {
		metrics[d.name] = map[string]any{"value": rep.Metrics[d.name], "unit": d.unit}
	}
	return map[string]any{
		"correct": rep.Failed == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	}
}

// compare prints both runs of every metric that has a bound, with
// their relative difference, and reports whether the gated ones — the
// end-to-end list — all agree within theirs. A timing outside its
// quiet-spell bound is unresolved, not a regression: see metrics.go.
func compare(w *os.File, first, second []*report) bool {
	ok := true
	fmt.Fprintf(w, "== selfcheck: two runs of the same code\n  %-12s %-26s %14s %14s %8s %8s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range a.defs {
			va, has := a.Metrics[d.name]
			if !has || d.bound == 0 {
				continue
			}
			vb := b.Metrics[d.name]
			diff := math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			verdict := ""
			switch {
			case diff <= d.bound:
			case gated(d.name):
				verdict, ok = "  OUTSIDE BOUND", false
			default:
				verdict = "  UNRESOLVED (not gated)"
			}
			fmt.Fprintf(w, "  %-12s %-26s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", a.Workload, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "  %-12s failed operations: %d and %d\n", a.Workload, a.Failed, b.Failed)
			ok = false
		}
	}
	return ok
}
