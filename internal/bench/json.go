package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Machine-readable benchmark artifacts. Each experiment's tables can be
// written as BENCH_<experiment>.json so the performance trajectory
// (dataset sizes, page reads, ns/op, queries/sec, ...) is diffable
// across PRs instead of living only in the printed text tables.
//
// The schema keeps each row as a {column: value} object — stable under
// column reordering, greppable, and trivially loadable into a dataframe.

// jsonRow is one table row keyed by column name.
type jsonRow map[string]string

// jsonTable mirrors Table for serialization.
type jsonTable struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Note    string    `json:"note,omitempty"`
}

// jsonEnv records the machine the numbers were measured on. Parallel
// build and shard-prefetch speedups are bounded by GOMAXPROCS, so artifacts
// from a single-core container (≈1× speedups) and a multi-core CI
// runner are only comparable with this stamp.
type jsonEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// jsonReport is the top-level BENCH_<experiment>.json document.
type jsonReport struct {
	Experiment string      `json:"experiment"`
	Env        jsonEnv     `json:"env"`
	Tables     []jsonTable `json:"tables"`
}

// JSONFileName returns the artifact name for an experiment id.
func JSONFileName(experiment string) string {
	return fmt.Sprintf("BENCH_%s.json", experiment)
}

// WriteJSON writes the experiment's tables as BENCH_<experiment>.json
// under dir (created if missing) and returns the file path.
func WriteJSON(dir, experiment string, tables []*Table) (string, error) {
	report := jsonReport{
		Experiment: experiment,
		Env: jsonEnv{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
	}
	for _, t := range tables {
		jt := jsonTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Note: t.Note}
		for _, row := range t.Rows {
			jr := make(jsonRow, len(row))
			for i, cell := range row {
				if i < len(t.Columns) {
					jr[t.Columns[i]] = cell
				}
			}
			jt.Rows = append(jt.Rows, jr)
		}
		report.Tables = append(report.Tables, jt)
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
