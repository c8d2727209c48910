// Command flatlint runs FLAT's repo-specific static analyzers over Go
// packages, multichecker-style:
//
//	flatlint ./...
//	flatlint -list
//	flatlint -run ctxcrawl,lockedfield ./...
//
// It exits 1 when any diagnostic is reported and 2 on load errors, so
// it can gate CI next to go vet and staticcheck. See internal/analyzers
// for the checks and the //lint:ignore suppression syntax.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flat/internal/analysis"
	"flat/internal/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list available analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: flatlint [-run names] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analyzers.All()
	if *list {
		for _, a := range all {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}

	selected := all
	if *run != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "flatlint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatlint: %v\n", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(cwd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatlint: %v\n", err)
		os.Exit(2)
	}

	findings, err := analysis.RunAnalyzers(pkgs, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
