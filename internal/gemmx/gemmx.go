// Package gemmx implements the paper's GEMM workload (§IV-E): C = A×B on
// matrices too large for GPU memory, tiled so that A/B/C tiles stream
// between the SSD array and the GPU. The tiling loop is generic over
// xfer.Backend, which is how the paper's four configurations — CAM, BaM,
// GDS, and SPDK — run the identical algorithm with only the storage path
// changing. On small instances the tiles hold real float32 data and the
// product is verified against a dense reference multiply.
package gemmx

import (
	"encoding/binary"
	"fmt"
	"math"

	"camsim/internal/gpu"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

// Config sizes the multiplication C[N×M] = A[N×K] × B[K×M].
type Config struct {
	// N, K, M are matrix dimensions in elements; all must be multiples
	// of Tile.
	N, K, M int
	// Tile is the square tile edge in elements (tile bytes = Tile²×4).
	Tile int
	// ComputeRate is the effective GPU FLOP rate for the dense tile
	// multiply (tensor cores at realistic efficiency).
	ComputeRate float64
	// RealMath computes actual float32 products (small instances only;
	// large timing runs move real bytes but skip the arithmetic).
	RealMath bool
}

// Validate checks dimensions against the backend granularity, which every
// backend needs in whole LBAs.
func (c Config) Validate(blockBytes int64) error {
	if c.Tile <= 0 || c.N <= 0 || c.K <= 0 || c.M <= 0 || c.N%c.Tile != 0 || c.K%c.Tile != 0 || c.M%c.Tile != 0 {
		return fmt.Errorf("gemmx: dims (%d,%d,%d) must be positive multiples of Tile %d", c.N, c.K, c.M, c.Tile)
	}
	if blockBytes%nvme.LBASize != 0 {
		return fmt.Errorf("gemmx: backend block %d is not whole %d-byte LBAs", blockBytes, nvme.LBASize)
	}
	if c.TileBytes()%blockBytes != 0 {
		return fmt.Errorf("gemmx: tile bytes %d not a multiple of backend block %d", c.TileBytes(), blockBytes)
	}
	return nil
}

// TileBytes reports the byte size of one tile.
func (c Config) TileBytes() int64 { return int64(c.Tile) * int64(c.Tile) * 4 }

// Region offsets in the flat SSD byte space: A, then B, then C.
func (c Config) aOff() int64 { return 0 }
func (c Config) bOff() int64 {
	return int64(c.N/c.Tile) * int64(c.K/c.Tile) * c.TileBytes()
}
func (c Config) cOff() int64 {
	return c.bOff() + int64(c.K/c.Tile)*int64(c.M/c.Tile)*c.TileBytes()
}

// aTileOff returns the byte offset of A's tile (i,k), tiles row-major.
func (c Config) aTileOff(i, k int) int64 {
	return c.aOff() + (int64(i)*int64(c.K/c.Tile)+int64(k))*c.TileBytes()
}

func (c Config) bTileOff(k, j int) int64 {
	return c.bOff() + (int64(k)*int64(c.M/c.Tile)+int64(j))*c.TileBytes()
}

func (c Config) cTileOff(i, j int) int64 {
	return c.cOff() + (int64(i)*int64(c.M/c.Tile)+int64(j))*c.TileBytes()
}

// Stats reports one multiplication run.
type Stats struct {
	Elapsed   sim.Time
	BytesRead int64
	// Throughput is read bytes per second — the paper's Fig 10b metric.
	Throughput float64
	Tiles      int
}

// Multiplier executes the tiled GEMM over one backend.
type Multiplier struct {
	env *platform.Env
	b   xfer.Backend
	cfg Config
}

// New creates a multiplier; cfg must validate against the backend.
func New(env *platform.Env, b xfer.Backend, cfg Config) *Multiplier {
	if err := cfg.Validate(b.BlockBytes()); err != nil {
		panic(err)
	}
	return &Multiplier{env: env, b: b, cfg: cfg}
}

// FillInputs writes deterministic small-integer float32 values into A and
// B through the backend (exact in float arithmetic, so verification is
// bit-stable regardless of accumulation order).
func (m *Multiplier) FillInputs(p *sim.Proc, seed uint64) {
	c := m.cfg
	buf := m.b.Alloc("gemm.fill", c.TileBytes())
	defer buf.Free()
	rng := sim.NewRNG(seed)
	bb := buf.Bytes()
	fill := func(off int64, tiles int) {
		for t := 0; t < tiles; t++ {
			for i := int64(0); i < c.TileBytes(); i += 4 {
				v := float32(rng.Int63n(17) - 8)
				binary.LittleEndian.PutUint32(bb[i:], math.Float32bits(v))
			}
			xfer.Write(p, m.b, off+int64(t)*c.TileBytes(), c.TileBytes(), buf, 0)
		}
	}
	fill(c.aOff(), (c.N/c.Tile)*(c.K/c.Tile))
	fill(c.bOff(), (c.K/c.Tile)*(c.M/c.Tile))
}

// Run executes the multiplication: for each C tile, stream the A-row and
// B-column panels with one-step prefetch ahead, accumulate, and write the
// tile back. Overlap quality is whatever the backend delivers — CAM's
// asynchronous batches overlap with the multiply kernels; BaM's gathers
// pin the SMs and serialize; GDS and SPDK pay their software/staging paths.
func (m *Multiplier) Run(p *sim.Proc) Stats {
	c := m.cfg
	tb := c.TileBytes()
	nT, kT, mT := c.N/c.Tile, c.K/c.Tile, c.M/c.Tile

	// Double-buffered input tiles: slot 0 computes while slot 1 loads.
	var bufs [2][2]*gpu.Buffer // [slot][A/B]
	for s := 0; s < 2; s++ {
		bufs[s][0] = m.b.Alloc(fmt.Sprintf("gemm.a%d", s), tb)
		bufs[s][1] = m.b.Alloc(fmt.Sprintf("gemm.b%d", s), tb)
	}
	acc := m.b.Alloc("gemm.acc", tb)
	defer func() {
		for s := 0; s < 2; s++ {
			bufs[s][0].Free()
			bufs[s][1].Free()
		}
		acc.Free()
	}()

	// The (i,j,k) visit order, flattened so "next load" is trivial.
	type step struct{ i, j, k int }
	var steps []step
	for i := 0; i < nT; i++ {
		for j := 0; j < mT; j++ {
			for k := 0; k < kT; k++ {
				steps = append(steps, step{i, j, k})
			}
		}
	}

	start := p.Now()
	var st Stats
	load := func(slot int, s step) [2]xfer.Handle {
		return [2]xfer.Handle{
			m.b.StartRead(p, c.aTileOff(s.i, s.k), tb, bufs[slot][0], 0),
			m.b.StartRead(p, c.bTileOff(s.k, s.j), tb, bufs[slot][1], 0),
		}
	}
	var pending [2][2]xfer.Handle
	var cWrite xfer.Handle
	pending[0] = load(0, steps[0])

	kernelTime := sim.Time(2 * float64(c.Tile) * float64(c.Tile) * float64(c.Tile) / c.ComputeRate * float64(sim.Second))

	for si, s := range steps {
		slot := si % 2
		pending[slot][0].Wait(p)
		pending[slot][1].Wait(p)
		if si+1 < len(steps) {
			pending[1-slot] = load(1-slot, steps[si+1])
		}

		if s.k == 0 {
			// The previous C tile's write-back must finish before its
			// buffer is cleared for reuse.
			if cWrite != nil {
				cWrite.Wait(p)
				cWrite = nil
			}
			// Zeroing empties the accumulator's pages in both modes; it
			// only materializes when RealMath consumes it.
			acc.Payload().SetZero(0, tb)
		}
		if c.RealMath {
			// The accumulate consumes tile content: materialize here.
			accumulate(acc.Bytes(), bufs[slot][0].Bytes(), bufs[slot][1].Bytes(), c.Tile)
		}
		m.env.GPU.RunKernel(p, gpu.KernelSpec{
			Name: "gemm", Threads: m.env.GPU.TotalThreads(), FullOccupancyTime: kernelTime,
		})
		st.BytesRead += 2 * tb
		st.Tiles++

		if s.k == kT-1 {
			cWrite = m.b.StartWrite(p, c.cTileOff(s.i, s.j), tb, acc, 0)
		}
	}
	if cWrite != nil {
		cWrite.Wait(p)
	}
	st.Elapsed = p.Now() - start
	st.Throughput = float64(st.BytesRead) / st.Elapsed.Seconds()
	return st
}

// Verify recomputes the product densely in host memory and compares every
// C tile read back through the backend. Only sensible with RealMath on a
// small instance.
func (m *Multiplier) Verify(p *sim.Proc, seed uint64) error {
	c := m.cfg
	// Rebuild A and B from the same deterministic stream Fill used.
	a := make([]float32, c.N*c.K)
	b := make([]float32, c.K*c.M)
	rng := sim.NewRNG(seed)
	readTile := func(dst []float32, rows, cols, ti, tj int) {
		// The generator emitted tile-major values; regenerate in the
		// same order.
		for y := 0; y < c.Tile; y++ {
			for x := 0; x < c.Tile; x++ {
				v := float32(rng.Int63n(17) - 8)
				dst[(ti*c.Tile+y)*cols+tj*c.Tile+x] = v
			}
		}
		_ = rows
	}
	for i := 0; i < c.N/c.Tile; i++ {
		for k := 0; k < c.K/c.Tile; k++ {
			readTile(a, c.N, c.K, i, k)
		}
	}
	for k := 0; k < c.K/c.Tile; k++ {
		for j := 0; j < c.M/c.Tile; j++ {
			readTile(b, c.K, c.M, k, j)
		}
	}
	// Dense reference.
	ref := make([]float32, c.N*c.M)
	for i := 0; i < c.N; i++ {
		for k := 0; k < c.K; k++ {
			av := a[i*c.K+k]
			if av == 0 {
				continue
			}
			for j := 0; j < c.M; j++ {
				ref[i*c.M+j] += av * b[k*c.M+j]
			}
		}
	}
	// Compare against stored C tiles.
	buf := m.b.Alloc("gemm.verify", c.TileBytes())
	defer buf.Free()
	for i := 0; i < c.N/c.Tile; i++ {
		for j := 0; j < c.M/c.Tile; j++ {
			xfer.Read(p, m.b, c.cTileOff(i, j), c.TileBytes(), buf, 0)
			bb := buf.Bytes()
			for y := 0; y < c.Tile; y++ {
				for x := 0; x < c.Tile; x++ {
					got := math.Float32frombits(binary.LittleEndian.Uint32(bb[(y*c.Tile+x)*4:]))
					want := ref[(i*c.Tile+y)*c.M+j*c.Tile+x]
					if got != want {
						return fmt.Errorf("gemmx: C[%d,%d] = %g, want %g",
							i*c.Tile+y, j*c.Tile+x, got, want)
					}
				}
			}
		}
	}
	return nil
}

// accumulate does acc += A×B on Tile×Tile row-major float32 tiles stored
// as little-endian bytes.
func accumulate(accB, aB, bB []byte, t int) {
	// Decode once; encode once. Inner loops work on float slices.
	acc := decodeF32(accB)
	a := decodeF32(aB)
	b := decodeF32(bB)
	for i := 0; i < t; i++ {
		for k := 0; k < t; k++ {
			av := a[i*t+k]
			if av == 0 {
				continue
			}
			row := acc[i*t : (i+1)*t]
			brow := b[k*t : (k+1)*t]
			for j := range row {
				row[j] += av * brow[j]
			}
		}
	}
	encodeF32(accB, acc)
}

func decodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func encodeF32(b []byte, v []float32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(x))
	}
}
