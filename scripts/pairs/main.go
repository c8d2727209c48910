// Command pairs applies the repository's claim rule to paired runs of
// one command on a parent revision and on a change, as
// scripts/pairs.sh makes them: DIR holds parent.I.txt and change.I.txt
// for I = 1..N, each the stdout of one run, and run I of each side ran
// back to back. A run's metrics are read from its last JSON line
// (benchmark/run.sh's result object) or, when it has none, from its
// `go test -bench` result lines. For every metric all 2N runs report it
// prints each side's median and quartiles, the change's wins, losses
// and ties, and the verdict: better or worse when one side wins at
// least nine tenths of the pairs and its median is ahead by more than
// the parent's interquartile range, equal when every pair ties, and
// unresolved otherwise.
//
//	go run ./scripts/pairs [-n 10] [-benchmark BENCHMARK.json] DIR
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	n := flag.Int("n", 10, "number of pairs in DIR")
	spec := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration whose \"better\" fields say which way each metric improves")
	flag.Parse()
	if flag.NArg() != 1 || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: pairs [-n N] [-benchmark FILE] DIR")
		os.Exit(2)
	}
	higher, err := higherBetter(*spec)
	if err != nil {
		fail(err)
	}
	var sides [2][]map[string]float64 // parent, change
	for i := 1; i <= *n; i++ {
		for s, name := range []string{"parent", "change"} {
			m, err := readRun(filepath.Join(flag.Arg(0), fmt.Sprintf("%s.%d.txt", name, i)))
			if err != nil {
				fail(err)
			}
			sides[s] = append(sides[s], m)
		}
	}
	fmt.Printf("%d pairs; diff is the change's median against the parent's\n", *n)
	fmt.Printf("%-40s %-32s %-32s %8s %8s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "diff", "W/L/T", "verdict")
	for _, name := range commonMetrics(sides) {
		var vals [2][]float64
		for s := range sides {
			for _, m := range sides[s] {
				vals[s] = append(vals[s], m[name])
			}
		}
		lower := !higher[name] && !strings.HasSuffix(name, "/s")
		c := compare(vals[0], vals[1], lower)
		diff := "n/a"
		if c.parent.median != 0 {
			diff = fmt.Sprintf("%+.1f%%", 100*(c.change.median-c.parent.median)/c.parent.median)
		}
		fmt.Printf("%-40s %-32s %-32s %8s %8s  %s\n", name, c.parent, c.change, diff,
			fmt.Sprintf("%d/%d/%d", c.wins, c.losses, c.ties), c.verdict())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pairs:", err)
	os.Exit(1)
}

func (s summary) String() string {
	return fmt.Sprintf("%s [%s, %s]", num(s.median), num(s.q1), num(s.q3))
}

// num prints v to four significant digits, whole numbers from 10 000 up.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// higherBetter reads the metrics the benchmark declaration says improve
// upward; the rest improve downward, except go test -bench rates (a
// "/s" unit).
func higherBetter(path string) (map[string]bool, error) {
	higher := map[string]bool{}
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return higher, nil
	} else if err != nil {
		return nil, err
	}
	type metric struct{ Name, Better string }
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		higher[m.Name] = m.Better == "higher"
	}
	return higher, nil
}

// readRun reads one run's metrics: the last JSON object line's
// "metrics" values and its "failed" count, or else every go test
// -bench result line's values, named "Benchmark... unit".
func readRun(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lastJSON string
	bench := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "{") {
			lastJSON = line
			continue
		}
		// BenchmarkName-P  iterations  value unit  value unit ...
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				bench[fields[0]+" "+fields[i+1]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if lastJSON == "" {
		if len(bench) == 0 {
			return nil, fmt.Errorf("%s: no JSON result line and no benchmark lines", path)
		}
		return bench, nil
	}
	var res struct {
		Failed  float64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lastJSON), &res); err != nil {
		return nil, fmt.Errorf("%s: last JSON line: %w", path, err)
	}
	m := map[string]float64{"failed": res.Failed}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// commonMetrics returns, sorted, the metric names every run reports.
func commonMetrics(sides [2][]map[string]float64) []string {
	var names []string
	for name := range sides[0][0] {
		all := true
		for s := range sides {
			for _, m := range sides[s] {
				_, ok := m[name]
				all = all && ok
			}
		}
		if all {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}
