// Command camgemm runs the out-of-core GEMM workload on the simulated
// platform with a selectable backend, optionally verifying real float32
// results against a dense reference.
//
//	camgemm -n 2048 -tile 512 -backend cam
//	camgemm -n 64 -tile 16 -backend gds -verify
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"camsim/internal/calib"
	"camsim/internal/fault"
	"camsim/internal/gemmx"
	"camsim/internal/harness"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on a finished
// (and, with -verify, verified) multiply, 1 on a bad flag value, a lost
// transfer or a failed verification, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("camgemm", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		n       = flags.Int("n", 2048, "square matrix dimension (elements)")
		tile    = flags.Int("tile", 512, "tile edge (elements)")
		backend = flags.String("backend", "cam", "cam | bam | gds | spdk")
		ssds    = flags.Int("ssds", 12, "number of simulated SSDs")
		verify  = flags.Bool("verify", false, "compute real float32 math and verify (small sizes)")
		faults  = flags.String("faults", "", "fault injection `spec`: seed:rate shorthand or key=val,... (see cambench -h); empty or 'off' disables")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "camgemm: "+format+"\n", a...)
		return 1
	}

	if *ssds < 1 {
		return fail("-ssds %d: need at least one SSD", *ssds)
	}
	plan, err := fault.ParseSpec(*faults)
	if err == nil {
		err = plan.CheckDevices(*ssds)
	}
	if err != nil {
		return fail("-faults: %v", err)
	}

	cfg := gemmx.Config{N: *n, K: *n, M: *n, Tile: *tile, ComputeRate: calib.GEMMRate(), RealMath: *verify}
	env := platform.New(platform.Options{SSDs: *ssds, Faults: plan})
	defer env.E.Shutdown()
	// The backend checks cfg against its block before it is built.
	b, err := harness.GEMMBackend(env, *backend, cfg)
	switch {
	case errors.Is(err, harness.ErrUnknownBackend):
		return fail("%v", err)
	case err != nil:
		return fail("-n %d, -tile %d: %v", *n, *tile, err)
	}

	m := gemmx.New(env, b, cfg)
	var st gemmx.Stats
	var verr error
	env.E.Go("gemm", func(p *sim.Proc) {
		m.FillInputs(p, 42)
		st = m.Run(p)
		if *verify {
			verr = m.Verify(p, 42)
		}
	})
	if err := harness.Recovered(func() { env.Run() }); err != nil {
		return fail("%v", err)
	}
	if verr != nil {
		return fail("VERIFY FAILED: %v", verr)
	}
	fmt.Fprintf(stdout, "C[%d x %d] = A x B in %d x %d tiles on %s over %d SSDs\n",
		*n, *n, *tile, *tile, b.Name(), *ssds)
	fmt.Fprintf(stdout, "  elapsed:    %v\n", st.Elapsed)
	fmt.Fprintf(stdout, "  read:       %s (%s)\n", metrics.Bytes(float64(st.BytesRead)),
		metrics.GBps(st.Throughput))
	if *verify {
		fmt.Fprintln(stdout, "  verification: matches dense reference exactly")
	}
	if plan.Enabled() {
		fs := env.FaultStats()
		fmt.Fprintf(stdout, "  faults:     injected err=%d drop=%d slow=%d dead=%d\n",
			fs.Errors, fs.Drops, fs.Slows, fs.DeadDrops)
		if c, ok := b.(*xfer.CAMBackend); ok {
			rec := c.M.Driver().Recovery()
			fmt.Fprintf(stdout, "  recovery:   timeouts=%d retries=%d recovered=%d failed=%d devfail=%d\n",
				rec.Timeouts, rec.Retries, rec.Recovered, rec.FailedRequests, rec.DeviceFailures)
		}
	}
	return 0
}
