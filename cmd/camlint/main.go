// Command camlint runs the repository's simulation-invariant analyzers
// (internal/lint) over Go packages, multichecker-style: nodeterminism,
// errchecksim, eventtime and unusedallow. All root packages are analyzed as
// one program, so unusedallow judges every //camlint:allow against the
// findings of the whole run, and a //camlint: directive with any verb but
// allow is a finding of its own.
//
// Usage:
//
//	camlint [-list] [-only name,name] [packages...]
//
// With no package patterns it checks ./... relative to the current
// directory. There is no baseline of accepted findings: a finding is fixed
// or carries a //camlint:allow with its reason on the line. The exit status
// is 1 if any diagnostic survives //camlint:allow filtering, 2 on usage or
// load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"camsim/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("camlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		list = flags.Bool("list", false, "list analyzers and exit")
		only = flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "camlint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := lint.Load(".", flags.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "camlint: %v\n", err)
		return 2
	}
	diags, err := lint.NewProgram(pkgs).Run(analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "camlint: %v\n", err)
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		wd = "."
	}
	lint.WriteText(stdout, diags, lint.RelTo(wd))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
