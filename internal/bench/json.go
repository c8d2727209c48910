package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// Machine-readable benchmark artifacts. Each experiment's tables can be
// written as BENCH_<experiment>.json so the performance trajectory
// (dataset sizes, page reads, ns/op, queries/sec, ...) is diffable
// across PRs instead of living only in the printed text tables.
//
// The schema keeps each row as a {column: value} object — stable under
// column reordering, greppable, and trivially loadable into a dataframe.
// A report is self-describing: it records the Config it was run with and
// which columns are wall-clock, which is all Check needs to re-run it
// and compare every other cell exactly.

// jsonRow is one table row keyed by column name.
type jsonRow map[string]string

// jsonTable mirrors Table for serialization.
type jsonTable struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Timed   []string  `json:"timed"`
	Rows    []jsonRow `json:"rows"`
	Note    string    `json:"note,omitempty"`
}

// jsonEnv records the machine the numbers were measured on. Timed
// columns (and the parallel build speedup, bounded by GOMAXPROCS) only
// mean what the machine allows, so artifacts from a single-core
// container and a multi-core CI runner are only comparable with this
// stamp. Check prints both sides' stamps when a gated cell differs.
type jsonEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// jsonReport is the top-level BENCH_<experiment>.json document. Config
// is a pointer so a file recorded before the block existed decodes to
// nil rather than to a zero Config.
type jsonReport struct {
	Experiment string      `json:"experiment"`
	Config     *Config     `json:"config"`
	Env        jsonEnv     `json:"env"`
	Tables     []jsonTable `json:"tables"`
}

// JSONFileName returns the artifact name for an experiment id.
func JSONFileName(experiment string) string {
	return fmt.Sprintf("BENCH_%s.json", experiment)
}

func newReport(experiment string, cfg Config, tables []*Table) (jsonReport, error) {
	report := jsonReport{
		Experiment: experiment,
		Config:     &cfg,
		Env: jsonEnv{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
	}
	for i, t := range tables {
		jt := jsonTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Timed: t.Timed, Note: t.Note}
		if jt.Timed == nil {
			jt.Timed = []string{}
		}
		for j, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return report, fmt.Errorf("bench: %s table %d row %d has %d cells for %d columns",
					experiment, i, j, len(row), len(t.Columns))
			}
			jr := make(jsonRow, len(row))
			for c, cell := range row {
				jr[t.Columns[c]] = cell
			}
			jt.Rows = append(jt.Rows, jr)
		}
		report.Tables = append(report.Tables, jt)
	}
	return report, nil
}

// WriteJSON writes the experiment's tables, with the Config that
// produced them, as BENCH_<experiment>.json under dir (created if
// missing) and returns the file path.
func WriteJSON(dir, experiment string, cfg Config, tables []*Table) (string, error) {
	report, err := newReport(experiment, cfg, tables)
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: json dir: %w", err)
	}
	path := filepath.Join(dir, JSONFileName(experiment))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Check is the regression gate over recorded artifacts: it re-runs
// every BENCH_*.json under dir at the Config the file itself records
// and requires the same tables, columns, timed lists and row counts,
// and a string-equal cell in every column not listed as timed. Counts
// repeat exactly for one Config and timings never do, so a column is
// either exact or skipped — there is no tolerance. Titles, notes and
// the env stamp are not compared. One progress line per file goes to
// log; the returned error joins every mismatch found.
func Check(dir string, log io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, JSONFileName("*")))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("bench: no %s under %s", JSONFileName("*"), dir)
	}
	var errs []error
	for _, path := range paths {
		gated, fileErrs := checkFile(path)
		if len(fileErrs) == 0 {
			fmt.Fprintf(log, "%s: ok, %d gated cells match\n", filepath.Base(path), gated)
		} else {
			fmt.Fprintf(log, "%s: FAILED\n", filepath.Base(path))
		}
		errs = append(errs, fileErrs...)
	}
	return errors.Join(errs...)
}

// checkFile checks one artifact and returns the number of gated cells
// compared and every mismatch, each prefixed with the file name. A file
// it cannot re-run (unknown experiment, no config, malformed rows) is
// rejected before anything runs.
func checkFile(path string) (gated int, errs []error) {
	name := filepath.Base(path)
	failf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(name+": "+format, args...))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, []error{err}
	}
	var committed jsonReport
	if err := json.Unmarshal(data, &committed); err != nil {
		failf("not a benchmark report: %v", err)
		return 0, errs
	}
	if _, ok := registry[committed.Experiment]; !ok {
		failf("experiment %q is not in the registry (known: %v); delete the file", committed.Experiment, Experiments())
		return 0, errs
	}
	if committed.Config == nil || len(committed.Config.Densities) == 0 || committed.Config.Queries <= 0 {
		failf("no usable config block; re-record with flatbench -fig %s -json", committed.Experiment)
		return 0, errs
	}
	for i, t := range committed.Tables {
		for j, row := range t.Rows {
			if len(row) != len(t.Columns) {
				failf("table %d row %d: %d cells for %d columns", i, j, len(row), len(t.Columns))
			}
			for _, c := range t.Columns {
				if _, ok := row[c]; !ok {
					failf("table %d row %d: no cell for column %q", i, j, c)
				}
			}
		}
	}
	if len(errs) > 0 {
		return 0, errs
	}

	tables, err := NewRunner(*committed.Config).Run(committed.Experiment)
	if err != nil {
		failf("re-run: %v", err)
		return 0, errs
	}
	fresh, err := newReport(committed.Experiment, *committed.Config, tables)
	if err != nil {
		failf("re-run: %v", err)
		return 0, errs
	}
	if len(fresh.Tables) != len(committed.Tables) {
		failf("committed %d tables, got %d", len(committed.Tables), len(fresh.Tables))
		return 0, errs
	}
	for i, want := range committed.Tables {
		got := fresh.Tables[i]
		switch {
		case !slices.Equal(want.Columns, got.Columns):
			failf("table %d: committed columns %q, got %q", i, want.Columns, got.Columns)
			continue
		case !slices.Equal(want.Timed, got.Timed):
			failf("table %d: committed timed columns %q, got %q", i, want.Timed, got.Timed)
			continue
		case len(want.Rows) != len(got.Rows):
			failf("table %d: committed %d rows, got %d", i, len(want.Rows), len(got.Rows))
			continue
		}
		for j, row := range want.Rows {
			for _, c := range want.Columns {
				if slices.Contains(want.Timed, c) {
					continue
				}
				if row[c] != got.Rows[j][c] {
					failf("table %d row %d column %q: committed %s, got %s", i, j, c, row[c], got.Rows[j][c])
				}
				gated++
			}
		}
	}
	if len(errs) > 0 {
		failf("committed on %+v, re-run on %+v", committed.Env, fresh.Env)
	}
	return gated, errs
}
