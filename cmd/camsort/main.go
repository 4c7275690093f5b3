// Command camsort runs the out-of-core mergesort workload on the simulated
// platform with a selectable SSD-management backend, verifying the result.
//
//	camsort -keys 4194304 -backend cam
//	camsort -keys 1048576 -backend posix -ssds 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"camsim/internal/calib"
	"camsim/internal/fault"
	"camsim/internal/harness"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on a verified
// sort, 1 on a bad backend, fault spec or sort shape, a lost transfer, a
// sort left unfinished or a failed verification, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("camsort", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		keys    = flags.Int64("keys", 1<<21, "number of int32 keys (data = keys*4 bytes)")
		runKeys = flags.Int64("run", 0, "keys per phase-1 run (default keys/4)")
		chunk   = flags.Int64("chunk", 256<<10, "merge streaming chunk bytes")
		backend = flags.String("backend", "cam", "cam | spdk | posix | bam")
		ssds    = flags.Int("ssds", 12, "number of simulated SSDs")
		seed    = flags.Uint64("seed", 1, "key-generation seed")
		faults  = flags.String("faults", "", "fault injection `spec`: seed:rate shorthand or key=val,... (see cambench -h); empty or 'off' disables")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *ssds < 1 {
		fmt.Fprintf(stderr, "camsort: -ssds %d: need at least one SSD\n", *ssds)
		return 1
	}
	plan, err := fault.ParseSpec(*faults)
	if err == nil {
		err = plan.CheckDevices(*ssds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "camsort: -faults: %v\n", err)
		return 1
	}

	if *runKeys == 0 {
		*runKeys = *keys / 4
	}
	if *keys <= 0 || *runKeys <= 0 {
		fmt.Fprintf(stderr, "camsort: -keys %d with -run %d: a run needs at least one key (-run defaults to -keys/4)\n", *keys, *runKeys)
		return 1
	}
	cfg := sortx.Config{
		NumInts:    *keys,
		RunBytes:   *runKeys * 4,
		ChunkBytes: *chunk,
		SortRate:   calib.SortRate(),
		MergeRate:  calib.MergeRate(),
	}
	env := platform.New(platform.Options{SSDs: *ssds, Faults: plan})
	defer env.E.Shutdown()
	b, err := harness.SortBackend(env, *backend, cfg)
	switch {
	case errors.Is(err, harness.ErrUnknownBackend):
		fmt.Fprintf(stderr, "camsort: %v\n", err)
		return 1
	case err != nil:
		fmt.Fprintf(stderr, "camsort: -keys %d, -run %d, -chunk %d: %v\n", *keys, *runKeys, *chunk, err)
		return 1
	}

	s := sortx.New(env, b, cfg)
	var st sortx.Stats
	var verr error
	returned := false
	env.E.Go("sort", func(p *sim.Proc) {
		s.Fill(p, *seed)
		st = s.Sort(p)
		verr = s.Verify(p)
		returned = true
	})
	if err := harness.Recovered(func() { env.Run() }); err != nil {
		fmt.Fprintln(stderr, "camsort:", err)
		return 1
	}
	if !returned {
		// The machine went quiet with the sort blocked: an I/O it waits on
		// never completes (the kernel stack has no deadline for a dead
		// device).
		fmt.Fprintf(stderr, "camsort: the sort on %s never finished: the simulation went idle at %v with the sort still blocked\n", b.Name(), env.E.Now())
		return 1
	}
	if verr != nil {
		fmt.Fprintln(stderr, "camsort: VERIFY FAILED:", verr)
		return 1
	}
	fmt.Fprintf(stdout, "sorted %d keys (%s) on %s over %d SSDs\n",
		*keys, metrics.Bytes(float64(*keys*4)), b.Name(), *ssds)
	fmt.Fprintf(stdout, "  run phase:   %v\n", st.RunPhase)
	fmt.Fprintf(stdout, "  merge phase: %v (%d passes)\n", st.MergePhase, st.Passes)
	fmt.Fprintf(stdout, "  total:       %v  (%s effective)\n", st.Elapsed,
		metrics.GBps(float64(st.BytesMoved)/st.Elapsed.Seconds()))
	fmt.Fprintln(stdout, "  verification: sorted order and input permutation OK")
	if plan.Enabled() {
		fs := env.FaultStats()
		fmt.Fprintf(stdout, "  faults:      injected err=%d drop=%d slow=%d dead=%d\n",
			fs.Errors, fs.Drops, fs.Slows, fs.DeadDrops)
		if c, ok := b.(*xfer.CAMBackend); ok {
			rec := c.M.Driver().Recovery()
			fmt.Fprintf(stdout, "  recovery:    timeouts=%d retries=%d recovered=%d failed=%d devfail=%d\n",
				rec.Timeouts, rec.Retries, rec.Recovered, rec.FailedRequests, rec.DeviceFailures)
		}
	}
	return 0
}
