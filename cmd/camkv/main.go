// Command camkv runs the SSD-backed LLM KV-cache serving workload:
// multi-session decode with per-layer KV blocks spilling from the GPU-DRAM
// tier to the simulated SSD array and prefetched back ahead of the decode
// step, served through a selectable management backend.
//
//	camkv                              # CAM vs BaM vs SPDK at full scale
//	camkv -quick -backend cam          # one backend, scaled down
//	camkv -sessions 24 -ctx 512 -steps 128
//	camkv -faults 7:1e-4               # serve through injected media errors
//	camkv -parallel 3                  # all backends in flight at once
//
// Per-backend results print on stdout in fixed backend order regardless of
// -parallel, so output is byte-identical for any worker count; wall-clock
// diagnostics go to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"camsim/internal/fault"
	"camsim/internal/harness"
	"camsim/internal/kvcache"
	"camsim/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on success, 1 on a
// bad backend, fault spec or negative size or a backend that could not
// finish serving, 2 on a usage error (an unknown flag, or -parallel below 1).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("camkv", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		backend  = flags.String("backend", "all", "cam | bam | spdk | all (fixed comparison order)")
		sessions = flags.Int("sessions", 0, "concurrent decode sessions (0 = scale default)")
		ctx      = flags.Int("ctx", 0, "base prompt length in tokens; per-session lengths stagger around it (0 = scale default)")
		steps    = flags.Int("steps", 0, "decode steps per session (0 = scale default)")
		layers   = flags.Int("layers", 0, "model layers holding KV blocks (0 = scale default)")
		dram     = flags.Int("dram", 0, "GPU-DRAM tier capacity in block frames (0 = scale default; re-floored against the pinned working set)")
		ssds     = flags.Int("ssds", 0, "number of simulated SSDs (0 = scale default)")
		seed     = flags.Uint64("seed", 1, "workload seed (access-pattern draws)")
		quick    = flags.Bool("quick", false, "run the scaled-down workload")
		parallel = flags.Int("parallel", 1, "backends to serve concurrently (1 = serial)")
		faults   = flags.String("faults", "", "fault injection `spec`: seed:rate shorthand or key=val,... (see cambench -h); empty or 'off' disables")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "camkv: -parallel %d: must be at least 1\n", *parallel)
		return 2
	}
	for _, name := range []string{"sessions", "ctx", "steps", "layers", "dram", "ssds"} {
		if v := flags.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			fmt.Fprintf(stderr, "camkv: -%s %d: must not be negative (0 = scale default)\n", name, v)
			return 1
		}
	}

	params := harness.KVDefaults(harness.KVParams{
		Sessions: *sessions, Prompt: *ctx, Decode: *steps,
		Layers: *layers, DRAM: *dram, SSDs: *ssds, Seed: *seed,
	}, *quick)
	plan, err := fault.ParseSpec(*faults)
	if err == nil {
		err = plan.CheckDevices(params.SSDs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "camkv: -faults: %v\n", err)
		return 1
	}

	var systems []string
	switch strings.ToLower(*backend) {
	case "all":
		systems = harness.KVSystems
	case "cam":
		systems = []string{"CAM"}
	case "bam":
		systems = []string{"BaM"}
	case "spdk":
		systems = []string{"SPDK"}
	default:
		fmt.Fprintf(stderr, "camkv: unknown backend %q (want cam, bam, spdk, or all)\n", *backend)
		return 1
	}

	// Every backend's machine carries the plan's injectors, and the
	// drivers over them arm their recovery from those.
	cfg := harness.RunConfig{Quick: *quick, Faults: plan}

	type outcome struct {
		srv  *kvcache.Server
		env  *platform.Env
		wall time.Duration
		err  error // what stopped the run (BaM's lost block), nil if it served
	}
	outs := make([]outcome, len(systems))
	sem := make(chan struct{}, *parallel)
	done := make(chan int, len(systems))
	for i, sys := range systems {
		i, sys := i, sys
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			var o outcome
			o.err = harness.Recovered(func() { o.srv, o.env = harness.KVRun(cfg, params, sys) })
			o.wall = time.Since(t0)
			outs[i] = o
			done <- i
		}()
	}
	// Reported as each backend finishes, from this goroutine only: stderr
	// need not be safe for concurrent writes.
	code := 0
	for range systems {
		i := <-done
		if err := outs[i].err; err != nil {
			fmt.Fprintf(stderr, "camkv: %s: %v\n", systems[i], err)
			code = 1
			continue
		}
		fmt.Fprintf(stderr, "camkv: %s served in %.1fs wall\n", systems[i], outs[i].wall.Seconds())
	}

	// Stdout in fixed order, independent of completion order above; a
	// backend that failed prints nothing there.
	for i, sys := range systems {
		srv, env := outs[i].srv, outs[i].env
		if outs[i].err != nil {
			continue
		}
		st := srv.Stats()
		fmt.Fprintf(stdout, "%s: %d sessions, %d tokens decoded in %s virtual\n",
			sys, st.Sessions, st.DecodedTokens, (st.LastEnd - st.FirstArrival).String())
		fmt.Fprintf(stdout, "  serving:  %.1f tok/s, TTFT mean %.2f ms, step p50 %.0f us p99 %.0f us\n",
			st.TokensPerSec(), srv.TTFT().Mean()/1000,
			srv.StepLatency().Percentile(50), srv.StepLatency().Percentile(99))
		fmt.Fprintf(stdout, "  tier:     %.1f%% DRAM hit, %.1f%% of misses prefetch-covered\n",
			100*st.HitRate(), 100*st.PrefetchRate())
		fmt.Fprintf(stdout, "  traffic:  %d fills, %d spills, %d clean drops\n",
			st.Fills, st.Spills, st.CleanDrops)
		fmt.Fprintln(stdout, "  verification: every decoded-token checksum matched the analytic stamp fold")
		if plan.Enabled() {
			fs := env.FaultStats()
			fmt.Fprintf(stdout, "  faults:   injected err=%d drop=%d slow=%d dead=%d\n",
				fs.Errors, fs.Drops, fs.Slows, fs.DeadDrops)
		}
	}
	return code
}
