// Command bench is the repository's benchmark (BENCHMARK.json): five
// workloads over the CAM simulator, end-to-end metrics on the host and the
// model side, and a per-layer cost model taken from outside the layers. See
// README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

var workloads = []workload{
	{name: "cam-read-4k", setup: setupCAMRead,
		why: "the paper's headline point (Fig 8a): 12 SSDs, 4 KiB random prefetch, PCIe-limited; event-bound, so sim/ssd/spdk/nvme changes show here"},
	{name: "cam-mixed-4k", setup: setupCAMMixed,
		why: "same machine, alternating write_back and prefetch of stamped blocks: FTL programs and real bytes; a read-path gain that costs writes shows here"},
	{name: "stacks-read-4k", setup: setupStacks,
		why: "the same read stream through BaM, staged SPDK, POSIX and io_uring: bam, oskernel, goroutine procs and hostmem do the work and cam does none"},
	{name: "kv-serve", setup: setupKV,
		why: "what harness.KVRun serves on CAM, the only request-serving workload (TTFT, step latency); mem dominates and sim is small: the bypass for event-queue changes"},
	{name: "suite-quick", setup: setupSuite,
		why: "every harness experiment at quick scale plus a seeded sort: what users and CI run, and the only place gnn, sortx, gemmx, gds and sim.Cluster execute"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runSeconds is the run length BENCHMARK.json fixes; workload sizes are
// calibrated so that the timed reps add up to about this long at scale 1.
const runSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all five)")
		seed    = flag.Uint64("seed", 1, "feeds every address stream, platform.Options.Seed and kvcache.Config.Seed")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase; workload sizes scale with it by a fixed rule")
		trace   = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics (CPU shares, layer drives, counts, spans)")
		aa      = flag.Bool("aa", false, "run the untraced set twice and compare the two against each metric's bound")
		child   = flag.Bool("child", false, "internal: measure -workload in this process and print the result as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
		os.Exit(2)
	}
	p := params{seed: *seed, scale: *seconds / runSeconds}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	if *child {
		res, err := runChild(selected[0], p, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	ok := true
	if *aa {
		ok = runAA(selected, *seed, *seconds)
	} else {
		for _, w := range selected {
			res := spawn(w, *seed, *seconds, *trace)
			printReport(os.Stdout, w, res, *trace == 1)
			ok = ok && res.correct()
			if *name != "" {
				printContract(os.Stdout, res, *trace == 1)
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// spawn measures one workload in a child process of its own, so that every
// workload starts from a fresh heap and the peak RSS is that workload's. A
// child that crashes or prints no result fails every operation of the run.
func spawn(w workload, seed uint64, seconds float64, trace int) *result {
	failed := func(err error) *result {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return &result{Workload: w.name, Seed: seed, Attempted: 1, Failed: 1,
			Errors: []string{err.Error()}, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
	}
	self, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	cmd := exec.Command(self, "-child", "-workload", w.name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return failed(fmt.Errorf("child process: %w", err))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return failed(fmt.Errorf("child result: %w", err))
	}
	return res
}

// printContract prints the one-line result the benchmark contract asks
// for: the gated end-to-end metrics of an untraced run, or every per-layer
// metric of a traced one.
func printContract(out io.Writer, res *result, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, m := range perLayer() {
			metrics[m.name] = value{res.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range gated {
			metrics[m.name] = value{res.EndToEnd[m.name].Value, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
}
