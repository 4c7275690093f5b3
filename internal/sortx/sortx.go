// Package sortx implements the paper's mergesort workload (§IV-D): an
// out-of-core sort of int32 keys that do not fit in GPU memory. Phase one
// streams fixed-size runs to the GPU, sorts each (the ModernGPU block-sort
// stage), and writes them back; phase two merges groups of Fanin runs
// (pairwise by default, k-way with a tournament heap otherwise) across
// alternating SSD regions until one sorted run remains.
//
// The sorter is generic over xfer.Backend, so the identical algorithm runs
// on CAM, SPDK, and POSIX I/O — the paper's three sort configurations —
// with overlap behavior emerging from each backend's properties. Keys are
// real data end to end: the output is verified sorted and a permutation of
// the input.
package sortx

import (
	"encoding/binary"
	"fmt"

	"camsim/internal/gpu"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

// Config sizes the sort.
type Config struct {
	// NumInts is the total key count; NumInts*4 must be a multiple of
	// RunBytes.
	NumInts int64
	// RunBytes is the phase-one run size (bounded by GPU buffer budget).
	RunBytes int64
	// ChunkBytes is the merge-phase streaming granule.
	ChunkBytes int64
	// SortRate is the modeled GPU block-sort rate in keys/s.
	SortRate float64
	// MergeRate is the modeled GPU merge rate in keys/s.
	MergeRate float64
	// Fanin is the merge fan-in: how many runs combine per pass (2 is
	// classic pairwise; higher fan-in trades merge-heap work for fewer
	// passes and therefore less SSD traffic). Zero means 2.
	Fanin int
}

// fanin reports the effective merge fan-in.
func (c Config) fanin() int64 {
	if c.Fanin < 2 {
		return 2
	}
	return int64(c.Fanin)
}

// Validate checks the size constraints against a backend granularity.
func (c Config) Validate(blockBytes int64) error {
	data := c.NumInts * 4
	switch {
	case c.NumInts <= 0:
		return fmt.Errorf("sortx: NumInts must be positive")
	case c.ChunkBytes <= 0:
		return fmt.Errorf("sortx: ChunkBytes %d must be positive", c.ChunkBytes)
	case blockBytes <= 0:
		return fmt.Errorf("sortx: backend block %d must be positive", blockBytes)
	case c.RunBytes <= 0 || c.RunBytes%c.ChunkBytes != 0:
		return fmt.Errorf("sortx: RunBytes %d must be a multiple of ChunkBytes %d", c.RunBytes, c.ChunkBytes)
	case c.ChunkBytes%blockBytes != 0:
		return fmt.Errorf("sortx: ChunkBytes %d must be a multiple of backend block %d", c.ChunkBytes, blockBytes)
	case data%c.RunBytes != 0:
		return fmt.Errorf("sortx: data %d not a multiple of RunBytes %d", data, c.RunBytes)
	}
	if c.Fanin == 1 || c.Fanin < 0 {
		return fmt.Errorf("sortx: Fanin must be 0 (default 2) or >= 2")
	}
	return nil
}

// Sorter holds one sort instance.
type Sorter struct {
	env *platform.Env
	b   xfer.Backend
	cfg Config

	// checksum of the input multiset for verification
	inSum   uint64
	inXor   uint32
	filled  bool
	dataOff int64 // region A
	scratch int64 // region B

	// keys/ktmp are the block-sort scratch buffers, sized once for the run
	// length and reused across runs so the host-side sort allocates nothing
	// in steady state.
	keys, ktmp []uint32
}

// New creates a sorter; cfg must validate against the backend granularity.
func New(env *platform.Env, b xfer.Backend, cfg Config) *Sorter {
	if err := cfg.Validate(b.BlockBytes()); err != nil {
		panic(err)
	}
	return &Sorter{env: env, b: b, cfg: cfg, dataOff: 0, scratch: cfg.NumInts * 4}
}

// Fill writes a deterministic pseudo-random key sequence through the
// backend and records its checksum. Call once before Sort.
func (s *Sorter) Fill(p *sim.Proc, seed uint64) {
	rng := sim.NewRNG(seed)
	buf := s.b.Alloc("sortx.fill", s.cfg.ChunkBytes)
	bb := buf.Bytes()
	data := s.cfg.NumInts * 4
	for off := int64(0); off < data; off += s.cfg.ChunkBytes {
		for i := int64(0); i < s.cfg.ChunkBytes; i += 4 {
			v := uint32(rng.Uint64())
			binary.LittleEndian.PutUint32(bb[i:], v)
			s.inSum += uint64(v)
			s.inXor ^= v
		}
		xfer.Write(p, s.b, s.dataOff+off, s.cfg.ChunkBytes, buf, 0)
	}
	buf.Free()
	s.filled = true
}

// Stats reports what the last Sort did.
type Stats struct {
	Elapsed    sim.Time
	RunPhase   sim.Time
	MergePhase sim.Time
	Passes     int
	BytesMoved int64
}

// Sort runs the full out-of-core sort and returns phase timings. The
// sorted result lands back in region A (an extra copy pass is appended if
// the merge parity ends in the scratch region).
func (s *Sorter) Sort(p *sim.Proc) Stats {
	if !s.filled {
		panic("sortx: Fill before Sort")
	}
	var st Stats
	start := p.Now()
	// Choose where sorted runs land so the merge passes end in the data
	// region without a parity copy.
	runDst := s.dataOff
	if s.mergePasses()%2 == 1 {
		runDst = s.scratch
	}
	s.runPhase(p, runDst, &st)
	st.RunPhase = p.Now() - start

	mStart := p.Now()
	s.mergePhase(p, runDst, &st)
	st.MergePhase = p.Now() - mStart
	st.Elapsed = p.Now() - start
	return st
}

// runPhase reads each run, sorts it on the GPU, writes it back in place —
// with read-ahead of the next run and write-behind of the previous one
// (the Fig 7 double-buffer pattern).
// mergePasses reports how many merge passes the configuration needs.
func (s *Sorter) mergePasses() int {
	data := s.cfg.NumInts * 4
	w := s.cfg.RunBytes
	k := s.cfg.fanin()
	n := 0
	for w < data {
		w *= k
		n++
	}
	return n
}

func (s *Sorter) runPhase(p *sim.Proc, dstOff int64, st *Stats) {
	data := s.cfg.NumInts * 4
	runs := data / s.cfg.RunBytes
	bufs := [2]*gpu.Buffer{
		s.b.Alloc("sortx.runA", s.cfg.RunBytes),
		s.b.Alloc("sortx.runB", s.cfg.RunBytes),
	}
	defer bufs[0].Free()
	defer bufs[1].Free()
	var reads [2]xfer.Handle
	var writes [2]xfer.Handle

	reads[0] = s.b.StartRead(p, s.dataOff, s.cfg.RunBytes, bufs[0], 0)
	for r := int64(0); r < runs; r++ {
		cur := int(r % 2)
		reads[cur].Wait(p)
		if r+1 < runs {
			// The other buffer may still be draining its write.
			if writes[1-cur] != nil {
				writes[1-cur].Wait(p)
			}
			reads[1-cur] = s.b.StartRead(p, s.dataOff+(r+1)*s.cfg.RunBytes, s.cfg.RunBytes, bufs[1-cur], 0)
		}
		s.sortBuffer(p, bufs[cur])
		writes[cur] = s.b.StartWrite(p, dstOff+r*s.cfg.RunBytes, s.cfg.RunBytes, bufs[cur], 0)
		st.BytesMoved += 2 * s.cfg.RunBytes
	}
	for _, w := range writes {
		if w != nil {
			w.Wait(p)
		}
	}
}

// sortBuffer sorts the keys in buf (real bytes) and charges the modeled
// GPU block-sort kernel. The host-side sort is an LSD radix sort over the
// reusable scratch buffers: for uint32 keys its ascending output is
// identical to a comparison sort, at a fraction of the wall cost.
func (s *Sorter) sortBuffer(p *sim.Proc, buf *gpu.Buffer) {
	bb := buf.Bytes() // the sort consumes content: materialize here
	n := len(bb) / 4
	if cap(s.keys) < n {
		s.keys = make([]uint32, n)
		s.ktmp = make([]uint32, n)
	}
	keys := s.keys[:n]
	decodeInto(keys, bb)
	radixSort(keys, s.ktmp[:n])
	encode(bb, keys)
	kT := sim.Time(float64(n) / s.cfg.SortRate * float64(sim.Second))
	s.env.GPU.RunKernel(p, gpu.KernelSpec{
		Name: "blocksort", Threads: s.env.GPU.TotalThreads(), FullOccupancyTime: kT,
	})
}

// radixSort sorts keys ascending with a 4x8-bit LSD radix sort, ping-
// ponging between keys and tmp (len(tmp) >= len(keys)). Histograms for
// all four digit positions come from a single read pass, and passes whose
// digit is constant across the input are skipped.
func radixSort(keys, tmp []uint32) {
	n := len(keys)
	if n < 2 {
		return
	}
	var hist [4][256]int
	for _, v := range keys {
		hist[0][v&0xff]++
		hist[1][(v>>8)&0xff]++
		hist[2][(v>>16)&0xff]++
		hist[3][v>>24]++
	}
	src, dst := keys, tmp
	for pass := uint(0); pass < 4; pass++ {
		h := &hist[pass]
		if h[(src[0]>>(8*pass))&0xff] == n {
			continue // every key shares this digit
		}
		var ofs [256]int
		sum := 0
		for i, c := range h {
			ofs[i] = sum
			sum += c
		}
		for _, v := range src {
			d := (v >> (8 * pass)) & 0xff
			dst[ofs[d]] = v
			ofs[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// mergePhase merges groups of Fanin runs until one remains, alternating
// between the data and scratch regions; a final copy restores region A if
// needed.
func (s *Sorter) mergePhase(p *sim.Proc, srcStart int64, st *Stats) {
	data := s.cfg.NumInts * 4
	width := s.cfg.RunBytes
	k := s.cfg.fanin()
	src := srcStart
	dst := s.scratch
	if src == s.scratch {
		dst = s.dataOff
	}
	for width < data {
		for off := int64(0); off < data; off += k * width {
			// The last group may hold fewer (or shorter) runs.
			var lens []int64
			for r := int64(0); r < k && off+r*width < data; r++ {
				l := width
				if off+r*width+l > data {
					l = data - (off + r*width)
				}
				lens = append(lens, l)
			}
			s.mergeGroup(p, src+off, dst+off, width, lens, st)
		}
		src, dst = dst, src
		width *= k
		st.Passes++
	}
	if src != s.dataOff {
		// Result sits in scratch: stream it back.
		buf := s.b.Alloc("sortx.copy", s.cfg.ChunkBytes)
		for off := int64(0); off < data; off += s.cfg.ChunkBytes {
			xfer.Read(p, s.b, src+off, s.cfg.ChunkBytes, buf, 0)
			xfer.Write(p, s.b, s.dataOff+off, s.cfg.ChunkBytes, buf, 0)
			st.BytesMoved += 2 * s.cfg.ChunkBytes
		}
		buf.Free()
	}
}

// mergeGroup streams the sorted runs laid at srcOff + i*width (lengths
// lens, all multiples of ChunkBytes) into one sorted run at dstOff, using
// a k-way tournament heap over the runs' heads, with read-ahead on every
// input and write-behind on the output. The modeled GPU merge kernel is
// charged per produced chunk.
func (s *Sorter) mergeGroup(p *sim.Proc, srcOff, dstOff, width int64, lens []int64, st *Stats) {
	ck := s.cfg.ChunkBytes
	var total int64
	for _, l := range lens {
		total += l
	}
	if len(lens) == 1 {
		// A residual single run: stream it through unchanged.
		buf := s.b.Alloc("sortx.copy1", ck)
		for off := int64(0); off < lens[0]; off += ck {
			xfer.Read(p, s.b, srcOff+off, ck, buf, 0)
			xfer.Write(p, s.b, dstOff+off, ck, buf, 0)
			st.BytesMoved += 2 * ck
		}
		buf.Free()
		return
	}

	readers := make([]*runReader, len(lens))
	cur := make([][]byte, len(lens))
	pos := make([]int, len(lens))
	for i, l := range lens {
		readers[i] = newRunReader(p, s.b, fmt.Sprintf("m%d", i), srcOff+int64(i)*width, l, ck)
		defer readers[i].free()
		cur[i] = readers[i].next(p)
	}

	out := [2]*gpu.Buffer{s.b.Alloc("sortx.out0", ck), s.b.Alloc("sortx.out1", ck)}
	defer out[0].Free()
	defer out[1].Free()
	var outWrites [2]xfer.Handle
	slot := 0
	oi := 0
	written := int64(0)

	flush := func() {
		kT := sim.Time(float64(ck/4) / s.cfg.MergeRate * float64(sim.Second))
		s.env.GPU.RunKernel(p, gpu.KernelSpec{
			Name: "merge", Threads: s.env.GPU.TotalThreads(), FullOccupancyTime: kT,
		})
		outWrites[slot] = s.b.StartWrite(p, dstOff+written, ck, out[slot], 0)
		written += ck
		st.BytesMoved += ck
		slot = 1 - slot
		if outWrites[slot] != nil {
			outWrites[slot].Wait(p)
		}
		oi = 0
	}

	if len(lens) == 2 {
		// The default pairwise fan-in merges with a branch-light
		// two-pointer loop; the tournament heap only pays for itself at
		// k > 2. Ties take run 0 first, matching the heap's order.
		a, b := cur[0], cur[1]
		var pa, pb int
		va := binary.LittleEndian.Uint32(a)
		vb := binary.LittleEndian.Uint32(b)
		od := out[slot].Bytes()
		for a != nil && b != nil {
			if va <= vb {
				binary.LittleEndian.PutUint32(od[oi:], va)
				oi += 4
				pa += 4
				if int64(oi) == ck {
					flush()
					od = out[slot].Bytes()
				}
				if pa == len(a) {
					a = readers[0].next(p)
					pa = 0
					if a == nil {
						break
					}
				}
				va = binary.LittleEndian.Uint32(a[pa:])
			} else {
				binary.LittleEndian.PutUint32(od[oi:], vb)
				oi += 4
				pb += 4
				if int64(oi) == ck {
					flush()
					od = out[slot].Bytes()
				}
				if pb == len(b) {
					b = readers[1].next(p)
					pb = 0
					if b == nil {
						break
					}
				}
				vb = binary.LittleEndian.Uint32(b[pb:])
			}
		}
		// Drain the surviving run with bulk copies: the bytes are already
		// little-endian keys in ascending order.
		rest, pr, ri := a, pa, 0
		if rest == nil {
			rest, pr, ri = b, pb, 1
		}
		for rest != nil {
			n := copy(out[slot].Bytes()[oi:ck], rest[pr:])
			oi += n
			pr += n
			if int64(oi) == ck {
				flush()
			}
			if pr == len(rest) {
				rest = readers[ri].next(p)
				pr = 0
			}
		}
	} else {
		// k-way: replace-top min-heap over (value<<32 | run-index) packed
		// keys — one sift per produced key instead of a pop+push pair.
		h := make([]uint64, 0, len(lens))
		for i := range readers {
			h = append(h, uint64(binary.LittleEndian.Uint32(cur[i]))<<32|uint64(i))
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		od := out[slot].Bytes()
		for len(h) > 0 {
			top := h[0]
			binary.LittleEndian.PutUint32(od[oi:], uint32(top>>32))
			oi += 4
			i := int(uint32(top))
			pos[i] += 4
			if pos[i] == len(cur[i]) {
				cur[i] = readers[i].next(p)
				pos[i] = 0
			}
			if cur[i] == nil {
				// Run i exhausted: shrink the heap.
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
				if len(h) > 0 {
					siftDown(h, 0)
				}
			} else {
				h[0] = uint64(binary.LittleEndian.Uint32(cur[i][pos[i]:]))<<32 | uint64(i)
				siftDown(h, 0)
			}
			if int64(oi) == ck {
				flush()
				od = out[slot].Bytes()
			}
		}
	}
	if written != total {
		panic("sortx: merge output length mismatch")
	}
	st.BytesMoved += total // the group's input runs
	for _, w := range outWrites {
		if w != nil {
			w.Wait(p)
		}
	}
}

// readAhead is how many chunks each merge input keeps in flight; depth 2
// hides one full chunk of storage latency behind the previous chunk's
// consumption, which matters most for the staged (SPDK/POSIX) backends.
const readAhead = 2

// runReader streams one sorted run with readAhead chunks in flight.
type runReader struct {
	b         xfer.Backend
	off       int64 // next unread byte offset
	remaining int64
	ck        int64
	bufs      [readAhead + 1]*gpu.Buffer
	pending   [readAhead + 1]xfer.Handle
	head      int // slot of the oldest in-flight chunk
	inFlight  int
	issueSlot int
}

func newRunReader(p *sim.Proc, b xfer.Backend, name string, off, length, chunk int64) *runReader {
	rr := &runReader{b: b, off: off, remaining: length, ck: chunk}
	for i := range rr.bufs {
		rr.bufs[i] = b.Alloc(fmt.Sprintf("%s.%d", name, i), chunk)
	}
	for i := 0; i < readAhead && rr.remaining > 0; i++ {
		rr.issue(p)
	}
	return rr
}

func (rr *runReader) issue(p *sim.Proc) {
	rr.pending[rr.issueSlot] = rr.b.StartRead(p, rr.off, rr.ck, rr.bufs[rr.issueSlot], 0)
	rr.issueSlot = (rr.issueSlot + 1) % len(rr.bufs)
	rr.off += rr.ck
	rr.remaining -= rr.ck
	rr.inFlight++
}

// next returns the next chunk's bytes (nil when the run is exhausted) and
// keeps the read-ahead window full. The returned slice stays valid until
// the chunk after next is requested.
func (rr *runReader) next(p *sim.Proc) []byte {
	if rr.inFlight == 0 {
		return nil
	}
	h := rr.pending[rr.head]
	h.Wait(p)
	cur := rr.bufs[rr.head].Bytes()
	rr.head = (rr.head + 1) % len(rr.bufs)
	rr.inFlight--
	if rr.remaining > 0 {
		rr.issue(p)
	}
	return cur
}

func (rr *runReader) free() {
	for _, b := range rr.bufs {
		b.Free()
	}
}

// Verify streams the sorted result and checks order plus multiset
// checksums against the input recorded by Fill.
func (s *Sorter) Verify(p *sim.Proc) error {
	buf := s.b.Alloc("sortx.verify", s.cfg.ChunkBytes)
	defer buf.Free()
	var sum uint64
	var xr uint32
	prev := uint32(0)
	first := true
	data := s.cfg.NumInts * 4
	bb := buf.Bytes()
	for off := int64(0); off < data; off += s.cfg.ChunkBytes {
		xfer.Read(p, s.b, s.dataOff+off, s.cfg.ChunkBytes, buf, 0)
		for i := int64(0); i < s.cfg.ChunkBytes; i += 4 {
			v := binary.LittleEndian.Uint32(bb[i:])
			if !first && v < prev {
				return fmt.Errorf("sortx: out of order at byte %d: %d < %d", off+i, v, prev)
			}
			prev, first = v, false
			sum += uint64(v)
			xr ^= v
		}
	}
	if sum != s.inSum || xr != s.inXor {
		return fmt.Errorf("sortx: checksum mismatch (not a permutation of input)")
	}
	return nil
}

// siftDown restores the min-heap property at index i for packed
// (value<<32 | run-index) keys; uint64 order gives value-then-index ties.
func siftDown(h []uint64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func decodeInto(out []uint32, b []byte) {
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
}

func encode(b []byte, v []uint32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], x)
	}
}
