// Command camlint runs the repository's simulation-invariant analyzers
// (internal/lint) over Go packages, multichecker-style. Since v2 all root
// packages are analyzed as one program, so interprocedural facts
// (//camlint:pool lifecycles, determinism taint, hot-path reachability) cross
// package boundaries.
//
// Usage:
//
//	camlint [-list] [-only name,name] [-format text|json]
//	        [-baseline file] [-update-baseline] [-strict] [packages...]
//
// With no package patterns it checks ./... relative to the current
// directory. Findings recorded in the baseline file (lint_baseline.json by
// default) are suppressed, so the gate fails only on new findings;
// -update-baseline rewrites the file to accept the current findings, and
// -strict ignores it for deep sweeps. The exit status is 1 if any
// non-baselined diagnostic survives //camlint:allow filtering, 2 on usage
// or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"camsim/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list     = flag.Bool("list", false, "list analyzers and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		format   = flag.String("format", "text", "output format: text or json")
		baseline = flag.String("baseline", "lint_baseline.json", "baseline file of accepted findings (missing file = empty baseline)")
		update   = flag.Bool("update-baseline", false, "rewrite the baseline file to accept all current findings and exit")
		strict   = flag.Bool("strict", false, "ignore the baseline: report every finding")
	)
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "camlint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	switch *format {
	case "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "camlint: unknown format %q (want text or json)\n", *format)
		return 2
	}

	pkgs, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camlint: %v\n", err)
		return 2
	}

	diags, err := lint.NewProgram(pkgs).Run(analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camlint: %v\n", err)
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		wd = "."
	}
	rel := lint.RelTo(wd)

	if *update {
		if err := lint.NewBaseline(diags, rel).Write(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "camlint: writing baseline: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "camlint: %s now accepts %d finding(s)\n", *baseline, len(diags))
		return 0
	}

	if !*strict {
		base, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "camlint: %v\n", err)
			return 2
		}
		diags = base.Filter(diags, rel)
	}

	if *format == "json" {
		if err := lint.WriteJSON(os.Stdout, diags, rel); err != nil {
			fmt.Fprintf(os.Stderr, "camlint: %v\n", err)
			return 2
		}
	} else {
		lint.WriteText(os.Stdout, diags, rel)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
