// Quickstart: the smallest complete CAM program.
//
// It builds the simulated platform (GPU + SSD array + PCIe), initializes
// CAM (CAM_init), allocates pinned GPU memory (CAM_alloc), writes a batch
// of blocks to the SSDs (write_back / write_back_synchronize), reads them
// back (prefetch / prefetch_synchronize), and checks the bytes — the full
// Figure 5 control flow of the paper in ~60 lines of application code.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"camsim/internal/cam"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 when the blocks
// read back identically, 1 when they do not, 2 on a usage error (the
// program takes no arguments).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	flags.SetOutput(stderr)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if flags.NArg() > 0 {
		fmt.Fprintf(stderr, "quickstart: unexpected argument %q\n", flags.Arg(0))
		return 2
	}

	// The evaluation platform: 4 SSDs is plenty for a demo.
	env := platform.New(platform.Options{SSDs: 4})
	defer env.E.Shutdown()

	// CAM_init: sets up the four GPU↔CPU sync regions, the SPDK-style
	// reactor threads (one per two SSDs), and the CPU polling thread.
	cfg := cam.DefaultConfig(len(env.Devs))
	cfg.BlockBytes = 4096
	mgr := cam.New(env.E, cfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)

	// CAM_alloc: pinned GPU memory the SSDs can DMA into directly.
	const nBlocks = 64
	src := mgr.Alloc("src", nBlocks*4096)
	dst := mgr.Alloc("dst", nBlocks*4096)
	sb := src.Bytes()
	for i := range sb {
		sb[i] = byte(i % 251)
	}

	// Everything below runs as the "GPU kernel" inside virtual time.
	env.E.Go("kernel", func(p *sim.Proc) {
		// The logical blocks to touch — striped across all SSDs by CAM.
		blocks := make([]uint64, nBlocks)
		for i := range blocks {
			blocks[i] = uint64(i)
		}

		// write_back is asynchronous: it publishes the block list into
		// CPU-visible memory and returns; the CPU control plane builds
		// and submits the NVMe commands.
		mgr.WriteBack(p, blocks, src, 0)
		mgr.WriteBackSynchronize(p)

		// prefetch mirrors it in the read direction.
		t0 := p.Now()
		mgr.Prefetch(p, blocks, dst, 0)
		mgr.PrefetchSynchronize(p)
		fmt.Fprintf(stdout, "prefetched %d blocks (256 KiB) in %v of simulated time\n",
			nBlocks, p.Now()-t0)
	})
	env.Run()

	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		fmt.Fprintln(stderr, "quickstart: round trip mismatch")
		return 1
	}
	st := mgr.Stats()
	fmt.Fprintf(stdout, "batches: %d, requests: %d, read: %d B, written: %d B\n",
		st.Batches, st.Requests, st.BytesRead, st.BytesWritten)
	fmt.Fprintf(stdout, "GPU SMs used for I/O: %.0f%% (CAM's whole point)\n",
		100*env.GPU.MeanSMUtilization())
	fmt.Fprintln(stdout, "OK: data written through CAM reads back identically")
	return 0
}
