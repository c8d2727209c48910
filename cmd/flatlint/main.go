// Command flatlint runs every one of FLAT's repo-specific static
// analyzers over the Go packages a pattern matches, in the current
// directory's module:
//
//	flatlint ./...
//
// It exits 1 when any diagnostic is reported and 2 on load errors, so
// it can gate CI next to go vet and staticcheck. See internal/analyzers
// for the checks and the //lint:ignore suppression syntax.
package main

import (
	"flag"
	"fmt"
	"os"

	"flat/internal/analyzers"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: flatlint [packages]\n")
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := analyzers.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatlint: %v\n", err)
		os.Exit(2)
	}
	findings := analyzers.Lint(pkgs, analyzers.All())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
