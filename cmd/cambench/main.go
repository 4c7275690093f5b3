// Command cambench runs the paper-reproduction experiments: one per table
// and figure of the CAM paper's evaluation section.
//
// Usage:
//
//	cambench -list
//	cambench -exp fig8            # one experiment at paper scale
//	cambench -exp all -quick      # everything, scaled down
//	cambench -exp all -parallel 8 # eight experiments in flight at once
//	cambench -exp fig9 -csv       # emit tables and figures as CSV
//	cambench -exp abl-faults -faults 7:1e-4  # inject media errors at 1e-4
//	cambench -exp fig8 -cpuprofile fig8.pprof
//
// Independent experiments run concurrently in a worker pool (-parallel,
// default GOMAXPROCS); rendered results appear on stdout in registry order
// and are byte-identical for any worker count. Host wall-clock timings and
// completion progress go to stderr, keeping stdout deterministic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"camsim/internal/fault"
	"camsim/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on success, 1 on a
// bad experiment id, fault spec or profile file or a failed experiment, 2 on a
// usage error (an unknown flag, or -parallel below 1).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("cambench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		exp        = flags.String("exp", "", "experiment id (see -list) or 'all'")
		list       = flags.Bool("list", false, "list available experiments")
		quick      = flags.Bool("quick", false, "run scaled-down workloads")
		csv        = flags.Bool("csv", false, "emit tables and figures as CSV instead of aligned text")
		parallel   = flags.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently (1 = serial)")
		cpuprofile = flags.String("cpuprofile", "", "write a CPU profile of the experiment runs to `file`")
		memprofile = flags.String("memprofile", "", "write an allocation profile taken after the runs to `file`")
		faults     = flags.String("faults", "", "fault injection `spec`: seed:rate shorthand or key=val,... (seed, rate, drop, slow, slowx, progfail, faildev, failat); empty or 'off' disables")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "cambench: -parallel %d: must be at least 1\n", *parallel)
		return 2
	}

	plan, err := fault.ParseSpec(*faults)
	if err != nil {
		fmt.Fprintf(stderr, "cambench: -faults: %v\n", err)
		return 1
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(stdout, "\nselect one with -exp <id> or run everything with -exp all")
		}
		return 0
	}

	// Every machine the experiments build carries the plan's injectors,
	// and the drivers over them arm their recovery from those.
	cfg := harness.RunConfig{Quick: *quick, Faults: plan}
	var toRun []harness.Experiment
	if *exp == "all" {
		toRun = harness.All()
	} else {
		e, ok := harness.Get(*exp)
		if !ok {
			fmt.Fprintf(stderr, "cambench: unknown experiment %q; use -list\n", *exp)
			return 1
		}
		toRun = []harness.Experiment{e}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cambench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cambench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	progress := func(p harness.Progress) {
		fmt.Fprintf(stderr, "cambench: %s done in %.1fs wall (%d/%d)\n",
			p.Result.ID, p.Wall.Seconds(), p.Completed, len(toRun))
	}
	results, err := harness.RunAll(toRun, cfg, *parallel, progress)
	if err != nil {
		fmt.Fprintf(stderr, "cambench: %v\n", err)
		return 1
	}

	for _, r := range results {
		if *csv {
			fmt.Fprintf(stdout, "# %s — %s\n", r.ID, r.Title)
			for _, t := range r.Tables {
				fmt.Fprint(stdout, t.CSV())
			}
			for _, f := range r.Figs {
				fmt.Fprint(stdout, f.CSV())
			}
		} else {
			fmt.Fprint(stdout, r.String())
		}
		if r.SimElapsed > 0 {
			fmt.Fprintf(stdout, "(%s simulated %s of virtual time)\n\n", r.ID, r.SimElapsed)
		} else {
			fmt.Fprintf(stdout, "(%s is a static table)\n\n", r.ID)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cambench: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "cambench: -memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
