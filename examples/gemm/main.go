// Out-of-core GEMM through the CAM API (the paper's §IV-E workload): three
// matrices live on the SSD array, tiles stream to the GPU with one-step
// prefetch-ahead, and the result is verified against a dense reference
// multiply — demonstrating that CAM's asynchronous batches carry real data.
//
//	go run ./examples/gemm
package main

import (
	"fmt"
	"io"
	"os"

	"camsim/internal/calib"
	"camsim/internal/gemmx"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 when the product
// matches the dense reference, 1 when it does not, 2 on any argument (the
// program takes none).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintf(stderr, "gemm: unexpected argument %q\n", args[0])
		return 2
	}
	env := platform.New(platform.Options{SSDs: 12})
	defer env.E.Shutdown()
	backend := xfer.NewCAM(env, 4096, nil)

	// Small enough to verify with real float32 arithmetic.
	cfg := gemmx.Config{
		N: 128, K: 128, M: 128,
		Tile:        32,
		ComputeRate: calib.GEMMRate(),
		RealMath:    true,
	}
	m := gemmx.New(env, backend, cfg)

	code := 0
	env.E.Go("app", func(p *sim.Proc) {
		m.FillInputs(p, 7)
		st := m.Run(p)
		if err := m.Verify(p, 7); err != nil {
			fmt.Fprintf(stderr, "gemm: %v\n", err)
			code = 1
			return
		}
		fmt.Fprintf(stdout, "C[%dx%d] = A x B in %dx%d tiles over %d SSDs\n",
			cfg.N, cfg.M, cfg.Tile, cfg.Tile, len(env.Devs))
		fmt.Fprintf(stdout, "  %d tile-pair loads, %s read at %s\n",
			st.Tiles, metrics.Bytes(float64(st.BytesRead)), metrics.GBps(st.Throughput))
		fmt.Fprintf(stdout, "  elapsed %v; result matches the dense reference bit-for-bit\n", st.Elapsed)
	})
	env.Run()
	return code
}
