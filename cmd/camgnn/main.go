// Command camgnn runs out-of-core GNN training iterations on the simulated
// platform, comparing the CAM pipeline against the BaM-based GIDS baseline.
//
//	camgnn -dataset paper100m -model gat -iters 3
//	camgnn -dataset igb -model gcn -system cam
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gnn"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 after the
// requested runs, 1 on a bad flag value, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("camgnn", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		dataset  = flags.String("dataset", "paper100m", "paper100m | igb")
		model    = flags.String("model", "gcn", "gcn | gat | graphsage")
		system   = flags.String("system", "both", "cam | gids | both")
		iters    = flags.Int("iters", 3, "training iterations to simulate")
		nodes    = flags.Uint64("nodes", 4_000_000, "scaled node count for the synthetic graph")
		batch    = flags.Int("batch", 512, "seed minibatch size")
		ssds     = flags.Int("ssds", 12, "number of simulated SSDs")
		useTrace = flags.Bool("trace", false, "print the CAM run's I/O-compute overlap report")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "camgnn: "+format+"\n", a...)
		return 1
	}

	var d gnn.Dataset
	switch strings.ToLower(*dataset) {
	case "paper100m":
		d = gnn.Paper100M()
	case "igb", "igb-full":
		d = gnn.IGBFull()
	default:
		return fail("unknown dataset %q (want paper100m or igb)", *dataset)
	}
	d = d.Scaled(*nodes)

	var m gnn.Model
	switch strings.ToLower(*model) {
	case "gcn":
		m = gnn.GCN
	case "gat":
		m = gnn.GAT
	case "graphsage", "sage":
		m = gnn.GraphSAGE
	default:
		return fail("unknown model %q (want gcn, gat or graphsage)", *model)
	}

	switch {
	case *system != "cam" && *system != "gids" && *system != "both":
		return fail("unknown system %q (want cam, gids or both)", *system)
	case *iters < 1:
		return fail("-iters %d: need at least one iteration", *iters)
	case *batch < 1:
		return fail("-batch %d: need at least one seed node", *batch)
	case uint64(*batch) > *nodes:
		// A minibatch draws distinct seed nodes.
		return fail("-batch %d exceeds -nodes %d", *batch, *nodes)
	case *ssds < 1:
		return fail("-ssds %d: need at least one SSD", *ssds)
	}

	tcfg := gnn.DefaultTrainConfig()
	tcfg.Batch = *batch

	show := func(name string, b gnn.Breakdown) {
		s, e, t := b.Fractions()
		perIter := b.Total.Seconds() * 1000 / float64(b.Iters)
		fmt.Fprintf(stdout, "%-5s %-10s on %-10s: %.3f ms/iter  (sample %.0f%%, extract %.0f%%, train %.0f%%, %d nodes/iter)\n",
			name, m.Name, d.Name, perIter, 100*s, 100*e, 100*t, b.Nodes/uint64(b.Iters))
	}

	var gids, camB gnn.Breakdown
	if *system == "gids" || *system == "both" {
		env := platform.New(platform.Options{SSDs: *ssds})
		sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
		tr := gnn.NewGIDSTrainer(env, d, m, tcfg, sys)
		env.E.Go("train", func(p *sim.Proc) { gids = tr.RunIterations(p, *iters) })
		env.Run()
		env.E.Shutdown()
		show("GIDS", gids)
	}
	if *system == "cam" || *system == "both" {
		env := platform.New(platform.Options{SSDs: *ssds})
		mgr := cam.New(env.E, gnn.CAMConfig(*ssds, d, tcfg), env.GPU, env.HM, env.Space, env.Fab, env.Devs)
		var meter *metrics.Overlap
		if *useTrace {
			meter = metrics.NewOverlap(env.E)
			mgr.SetOverlap(meter)
			env.GPU.SetOverlap(meter)
		}
		tr := gnn.NewCAMTrainer(env, d, m, tcfg, mgr)
		env.E.Go("train", func(p *sim.Proc) { camB = tr.RunIterations(p, *iters) })
		env.Run()
		env.E.Shutdown()
		show("CAM", camB)
		if *useTrace {
			ioBusy, comp, overlap, span := meter.Report()
			fmt.Fprintf(stdout, "trace: span=%v io-busy=%v compute-busy=%v overlapped=%v (%.0f%% of compute hidden under I/O)\n",
				span, ioBusy, comp, overlap, 100*float64(overlap)/float64(comp))
		}
	}
	if *system == "both" {
		g := gids.Total.Seconds() / float64(gids.Iters)
		c := camB.Total.Seconds() / float64(camB.Iters)
		fmt.Fprintf(stdout, "CAM speedup over GIDS: %.2fx\n", g/c)
	}
	return 0
}
