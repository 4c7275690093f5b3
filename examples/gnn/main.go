// Out-of-core GNN training with the CAM pipeline (the paper's Figure 6):
// node features live on the SSD array; while the GPU trains on batch k,
// CAM prefetches batch k+1's features into the other half of a double
// buffer. The same workload runs on the BaM-based GIDS baseline for
// comparison, reproducing the paper's headline speedup mechanism.
//
//	go run ./examples/gnn
package main

import (
	"fmt"
	"io"
	"os"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gnn"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 after both
// trainers ran, 2 on any argument (the program takes none).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintf(stderr, "gnn: unexpected argument %q\n", args[0])
		return 2
	}
	// Paper100M scaled to a demo-sized synthetic graph; feature rows keep
	// the real 512 B layout.
	dataset := gnn.Paper100M().Scaled(500_000)
	model := gnn.GAT // the paper's most compute-intensive model
	tcfg := gnn.DefaultTrainConfig()
	tcfg.Batch = 128
	const iters = 3

	// Baseline: GIDS on BaM. Feature gathers pin the GPU's SMs, so
	// sampling, extraction and training serialize.
	gidsEnv := platform.New(platform.Options{SSDs: 12})
	defer gidsEnv.E.Shutdown()
	sys := bam.New(gidsEnv.E, bam.DefaultConfig(), gidsEnv.GPU, gidsEnv.Devs)
	gids := gnn.NewGIDSTrainer(gidsEnv, dataset, model, tcfg, sys)
	var gb gnn.Breakdown
	gidsEnv.E.Go("gids", func(p *sim.Proc) { gb = gids.RunIterations(p, iters) })
	gidsEnv.Run()

	// CAM: the pipelined trainer of Figure 7.
	camEnv := platform.New(platform.Options{SSDs: 12})
	defer camEnv.E.Shutdown()
	mgr := cam.New(camEnv.E, gnn.CAMConfig(len(camEnv.Devs), dataset, tcfg), camEnv.GPU, camEnv.HM, camEnv.Space, camEnv.Fab, camEnv.Devs)
	camTr := gnn.NewCAMTrainer(camEnv, dataset, model, tcfg, mgr)
	var cb gnn.Breakdown
	camEnv.E.Go("cam", func(p *sim.Proc) { cb = camTr.RunIterations(p, iters) })
	camEnv.Run()

	show := func(name string, b gnn.Breakdown) {
		s, e, t := b.Fractions()
		fmt.Fprintf(stdout, "%-4s: %7.3f ms/iter  sample %4.0f%%  extract %4.0f%%  train %4.0f%%\n",
			name, b.Total.Seconds()*1000/float64(b.Iters), 100*s, 100*e, 100*t)
	}
	fmt.Fprintf(stdout, "training %s on %s (%d sampled nodes/iter, 12 SSDs)\n",
		model.Name, dataset.Name, gb.Nodes/uint64(gb.Iters))
	show("GIDS", gb)
	show("CAM", cb)
	g := gb.Total.Seconds() / float64(gb.Iters)
	c := cb.Total.Seconds() / float64(cb.Iters)
	fmt.Fprintf(stdout, "CAM speedup: %.2fx — feature I/O hides under the training kernel\n", g/c)
	return 0
}
