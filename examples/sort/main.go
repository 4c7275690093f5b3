// Out-of-core mergesort through the CAM API — the paper's §IV-D workload
// and the Figure 7 programming pattern: double-buffered prefetching keeps
// the SSDs busy while the GPU sorts and merges.
//
//	go run ./examples/sort
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"camsim/internal/calib"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on a verified
// sort, 1 on a failed verification, 2 on a usage error (the program takes
// no arguments).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sort", flag.ContinueOnError)
	flags.SetOutput(stderr)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if flags.NArg() > 0 {
		fmt.Fprintf(stderr, "sort: unexpected argument %q\n", flags.Arg(0))
		return 2
	}

	env := platform.New(platform.Options{SSDs: 12})
	defer env.E.Shutdown()

	// The CAM backend presents the SSD array as a flat byte space of
	// 64 KiB blocks; the sorter's reads and writes become prefetch /
	// write_back batches.
	backend := xfer.NewCAM(env, 65536, nil)

	cfg := sortx.Config{
		NumInts:    2 << 20,           // 8 MiB of int32 keys
		RunBytes:   2 << 20,           // four runs
		ChunkBytes: 256 << 10,         // merge streaming granule
		SortRate:   calib.SortRate(),  // modeled GPU block-sort rate
		MergeRate:  calib.MergeRate(), // modeled GPU merge rate
	}
	s := sortx.New(env, backend, cfg)

	var verr error
	env.E.Go("app", func(p *sim.Proc) {
		s.Fill(p, 2026) // deterministic pseudo-random keys
		st := s.Sort(p)
		if verr = s.Verify(p); verr != nil {
			return
		}
		fmt.Fprintf(stdout, "sorted %d keys out-of-core on %d SSDs\n", cfg.NumInts, len(env.Devs))
		fmt.Fprintf(stdout, "  run phase   %v (sort runs with read-ahead + write-behind)\n", st.RunPhase)
		fmt.Fprintf(stdout, "  merge phase %v (%d pairwise passes, streaming)\n", st.MergePhase, st.Passes)
		fmt.Fprintf(stdout, "  moved %s at %s effective\n",
			metrics.Bytes(float64(st.BytesMoved)),
			metrics.GBps(float64(st.BytesMoved)/st.Elapsed.Seconds()))
		fmt.Fprintln(stdout, "  verified: sorted and a permutation of the input")
	})
	env.Run()
	if verr != nil {
		fmt.Fprintf(stderr, "sort: %v\n", verr)
		return 1
	}
	return 0
}
