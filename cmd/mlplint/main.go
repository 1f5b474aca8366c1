// Command mlplint is the repo's invariant multichecker. It runs the
// internal/lint analyzer suite (maporder, rngclock, sharddiscipline,
// floatorder, frozen, guardedby, allocfree, orphans, worldwall)
// over the packages matching the given patterns (default ./...) and
// exits nonzero on any live finding. The graph rules judge a package
// against the import graph of the whole module, whatever the patterns.
// It is stdlib-only and needs no install step:
//
//	go run ./cmd/mlplint ./...
//	go run ./cmd/mlplint -json ./... > mlplint.json
//	go run ./cmd/mlplint -rules frozen,guardedby ./internal/core
//	go run ./cmd/mlplint -allocspans ./...
//
// -json emits the sorted diagnostics — including waived ones, which
// never affect the exit code — as a machine-readable array.
// -allocspans dumps the //mlplint:allocfree-annotated function spans
// for scripts/allocgate.sh to cross-check against compiler escape
// analysis.
//
// Deliberate exceptions are waived in source with
// //mlplint:<rule> <reason>; see internal/lint and the README's
// "Checked invariants" section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"mlpeering/internal/lint"
	"mlpeering/internal/lint/analysis"
	"mlpeering/internal/lint/load"
)

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (includes waived findings)")
	rulesFlag := flag.String("rules", "", "comma-separated analyzer names to run (default all)")
	allocSpans := flag.Bool("allocspans", false, "dump //mlplint:allocfree function spans (file:start:end:name) and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mlplint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the mlplint invariant analyzers over the given package\npatterns (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers
	if *rulesFlag != "" {
		analyzers = nil
		for _, name := range strings.Split(*rulesFlag, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(lint.Analyzers, func(a *analysis.Analyzer) bool { return a.Name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "mlplint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, lint.Analyzers[i])
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module, err := load.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlplint:", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	relpath := func(file string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && len(rel) < len(file) {
				return rel
			}
		}
		return file
	}

	if *allocSpans {
		for _, pkg := range module.Packages {
			for _, s := range lint.AllocFreeSpans(pkg.Fset, pkg.Files) {
				fmt.Printf("%s:%d:%d:%s\n", relpath(s.File), s.Start, s.End, s.Name)
			}
		}
		return
	}

	type diag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"rule"`
		Msg      string `json:"message"`
		Waived   bool   `json:"waived"`
	}
	var diags []diag
	for _, pkg := range module.Packages {
		for _, a := range analyzers {
			name := a.Name
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    module,
				Report: func(d analysis.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					diags = append(diags, diag{
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: name,
						Msg:      d.Message,
						Waived:   d.Waived,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "mlplint: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})

	live := 0
	seen := make(map[diag]bool)
	out := diags[:0]
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		d.File = relpath(d.File)
		out = append(out, d)
		if !d.Waived {
			live++
			if !*jsonOut {
				fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Msg)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []diag{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mlplint:", err)
			os.Exit(2)
		}
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "mlplint: %d finding(s)\n", live)
		os.Exit(1)
	}
}
