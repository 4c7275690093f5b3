package ssd

import (
	"fmt"
	"slices"
)

// FTL is a page-mapped flash translation layer: the metadata machine a
// real SSD runs between host LBAs and NAND pages. Writes append to an
// active block; overwrites invalidate the old page; when free blocks run
// low, garbage collection migrates a victim's valid pages and erases it.
//
// The paper treats the device as a black box with steady-state rates, so
// by default the FTL only *accounts* (write amplification, erases, GC
// migrations) without adding time — the calibrated Write IOPS already
// embody steady-state GC. Setting ChargeGC adds the migration time to the
// controller frontend explicitly, which exposes the classic random-write
// cliff as device utilization grows (see the abl-ftl experiment).
//
// Both translation directions are flat tables rather than Go maps, the
// way a real controller lays them out in DRAM. The forward table is a
// lazily allocated segment directory (dense LPN ranges cost one slice
// each, untouched ranges cost a nil pointer); LPNs beyond flatLimit —
// far past the drive's physical capacity — spill into a sparse overflow
// map so pathological offsets stay correct without reserving address
// space for them. The reverse table grows in lockstep with the physical
// blocks and is indexed directly by PPN. -1 marks an unmapped entry in
// both directions.
type FTL struct {
	cfg FTLConfig

	// mapSegs is the forward directory: mapSegs[lpn>>mapSegBits][lpn&mapSegMask]
	// holds the PPN for lpn, or -1. A segment materializes only once it
	// holds segDenseMin mappings; until then its entries live in overflow.
	mapSegs [][]int64
	// segCount tracks how many mappings each flat segment holds while it is
	// still sparse (entries parked in overflow); -1 marks a materialized
	// segment.
	segCount []int32
	// overflow holds mappings for LPNs at or beyond flatLimit, plus the
	// entries of still-sparse flat segments.
	overflow map[int64]int64
	// flatLimit is the first LPN served by the overflow map.
	flatLimit int64
	// mapped counts currently valid logical pages (== former len(mapping)).
	mapped int64

	// rmap: physical page number → logical page number for valid pages,
	// -1 otherwise. len(rmap) == len(blocks)*PagesPerBlock always.
	rmap []int64

	blocks    []ftlBlock
	active    int   // index of the block receiving writes
	freeList  []int // erased, reusable blocks
	nextFresh int   // count of never-allocated blocks remaining

	// progFail, when set, is consulted once per NAND page program; true
	// means the program failed and the page is burned (write pointer
	// advances past it, the data lands on the next page), as a real
	// controller skips bad pages. Installed by fault injection.
	progFail func() bool

	stats FTLStats
}

const (
	// mapSegBits sizes forward-table segments: 1<<13 entries = 64 KiB of
	// PPNs covering 32 MiB of logical space per segment.
	mapSegBits = 13
	mapSegSize = 1 << mapSegBits
	mapSegMask = mapSegSize - 1
	// maxFlatPages caps the flat directory's reach. A real controller
	// keeps ~1 GB of mapping DRAM per TB of flash; the simulator must not
	// charge the host that for every short-lived device instance, so only
	// the first 1 GiB of logical span (256 Ki pages → at most 32
	// segments, 2 MB fully dense) is flat and everything beyond falls
	// back to the sparse overflow map. Workloads that hammer the FTL
	// (abl-ftl: 8 MiB namespaces with GC charging) fit entirely below
	// this; multi-TB namespaces touched sparsely pay map cost only for
	// the pages they actually write, as before.
	maxFlatPages = 1 << 18
	// segDenseMin is how many live mappings a flat segment needs before it
	// materializes its 64 KiB PPN array. Random-write benchmarks that
	// scatter a few hundred pages across each 32 MiB logical window stay in
	// the overflow map (no allocation, no 64 KiB clear per segment); dense
	// sequential fills cross the threshold almost immediately and get the
	// flat array's O(1) lookups.
	segDenseMin = mapSegSize / 16
)

type ftlBlock struct {
	valid    int // valid pages in this block
	written  int // pages programmed since last erase (write pointer)
	erases   int
	inactive bool // fully written, candidate for GC
}

// FTLConfig sizes the translation layer.
type FTLConfig struct {
	// PageBytes is the NAND program granularity (4 KiB).
	PageBytes int64
	// PagesPerBlock is the erase-block size in pages (256 → 1 MiB).
	PagesPerBlock int
	// Blocks is the physical block count, including over-provisioning.
	Blocks int
	// GCWatermark triggers collection when free+fresh blocks fall to it.
	GCWatermark int
	// ChargeGC makes GC migrations consume controller time.
	ChargeGC bool
}

// DefaultFTLConfig sizes an FTL for the given logical capacity with the
// given over-provisioning fraction.
func DefaultFTLConfig(logicalBytes int64, overProvision float64) FTLConfig {
	cfg := FTLConfig{
		PageBytes:     4096,
		PagesPerBlock: 256,
		GCWatermark:   4,
	}
	blockBytes := cfg.PageBytes * int64(cfg.PagesPerBlock)
	logicalBlocks := (logicalBytes + blockBytes - 1) / blockBytes
	cfg.Blocks = int(float64(logicalBlocks)*(1+overProvision)) + cfg.GCWatermark + 2
	return cfg
}

// FTLStats aggregates the layer's counters.
type FTLStats struct {
	HostPages       int64 // pages the host asked to write
	NANDPages       int64 // pages actually programmed (host + GC copies)
	GCMigrations    int64 // valid pages copied by GC
	Erases          int64
	GCRuns          int64
	MappedPages     int64 // currently valid logical pages
	PartialWrites   int64 // sub-page host writes (read-modify-write)
	ProgramFailures int64 // injected NAND program failures (pages burned)
}

// WriteAmplification reports NAND/host page programs (1.0 when no GC has
// copied anything; 0 when nothing was written).
func (s FTLStats) WriteAmplification() float64 {
	if s.HostPages == 0 {
		return 0
	}
	return float64(s.NANDPages) / float64(s.HostPages)
}

// NewFTL builds an empty layer.
func NewFTL(cfg FTLConfig) *FTL {
	if cfg.PageBytes <= 0 || cfg.PagesPerBlock <= 0 || cfg.Blocks <= cfg.GCWatermark+1 {
		panic("ssd: invalid FTL config")
	}
	f := &FTL{
		cfg:       cfg,
		overflow:  make(map[int64]int64),
		flatLimit: min(4*int64(cfg.Blocks)*int64(cfg.PagesPerBlock), maxFlatPages),
		nextFresh: cfg.Blocks,
	}
	f.active = f.takeBlock()
	return f
}

// mapGet reads the forward table.
func (f *FTL) mapGet(lpn int64) (int64, bool) {
	if lpn < f.flatLimit {
		seg := lpn >> mapSegBits
		if seg < int64(len(f.mapSegs)) {
			if s := f.mapSegs[seg]; s != nil {
				if ppn := s[lpn&mapSegMask]; ppn >= 0 {
					return ppn, true
				}
				return 0, false
			}
		}
		// Sparse segment (or never touched): entries live in overflow.
	}
	ppn, ok := f.overflow[lpn]
	return ppn, ok
}

// mapSet writes the forward table. Sparse flat segments buffer their
// entries in the overflow map and materialize the 64 KiB PPN array only at
// segDenseMin mappings, migrating the buffered entries.
func (f *FTL) mapSet(lpn, ppn int64) {
	if lpn >= f.flatLimit {
		f.overflow[lpn] = ppn
		return
	}
	seg := lpn >> mapSegBits
	for int64(len(f.mapSegs)) <= seg {
		f.mapSegs = append(f.mapSegs, nil) // mapping-table growth, amortized over the LPN address space
		f.segCount = append(f.segCount, 0) // mapping-table growth, amortized over the LPN address space
	}
	if s := f.mapSegs[seg]; s != nil {
		s[lpn&mapSegMask] = ppn
		return
	}
	if _, exists := f.overflow[lpn]; !exists {
		f.segCount[seg]++
	}
	f.overflow[lpn] = ppn
	if f.segCount[seg] >= segDenseMin {
		f.materializeSeg(seg)
	}
}

// materializeSeg promotes a sparse segment to a flat PPN array, migrating
// its buffered overflow entries.
func (f *FTL) materializeSeg(seg int64) {
	s := make([]int64, mapSegSize) // one-time segment promotion, amortized over segDenseMin writes
	for i := range s {
		s[i] = -1
	}
	base := seg << mapSegBits
	for i := int64(0); i < mapSegSize; i++ {
		if ppn, ok := f.overflow[base+i]; ok {
			s[i] = ppn
			delete(f.overflow, base+i)
		}
	}
	f.mapSegs[seg] = s
	f.segCount[seg] = -1
}

// Stats returns a snapshot.
func (f *FTL) Stats() FTLStats {
	s := f.stats
	s.MappedPages = f.mapped
	return s
}

// SetProgramFault installs a per-program failure source (nil disables).
func (f *FTL) SetProgramFault(fn func() bool) { f.progFail = fn }

// takeBlock hands out an erased block, preferring recycled ones. Fresh
// blocks extend the reverse map in lockstep.
func (f *FTL) takeBlock() int {
	if n := len(f.freeList); n > 0 {
		b := f.freeList[n-1]
		f.freeList = f.freeList[:n-1]
		return b
	}
	if f.nextFresh == 0 {
		panic("ssd: FTL out of physical blocks — over-provisioning exhausted")
	}
	f.nextFresh--
	f.blocks = append(f.blocks, ftlBlock{}) // lazy block materialization, once per physical block ever
	start := len(f.rmap)
	f.rmap = append(f.rmap, make([]int64, f.cfg.PagesPerBlock)...) // lazy block materialization, once per physical block ever
	for i := start; i < len(f.rmap); i++ {
		f.rmap[i] = -1
	}
	return len(f.blocks) - 1
}

// freeBlocksAvail reports erased plus never-used blocks.
func (f *FTL) freeBlocksAvail() int { return len(f.freeList) + f.nextFresh }

// HostWrite records a host write of n bytes at byte offset off and
// returns the number of page programs it caused including any GC
// migrations (callers charging GC time multiply by the page program
// cost).
func (f *FTL) HostWrite(off, n int64) (programs int64) {
	if n <= 0 {
		return 0
	}
	firstPage := off / f.cfg.PageBytes
	lastPage := (off + n - 1) / f.cfg.PageBytes
	for lpn := firstPage; lpn <= lastPage; lpn++ {
		// Sub-page head/tail writes still program a whole page.
		pageStart := lpn * f.cfg.PageBytes
		if off > pageStart || off+n < pageStart+f.cfg.PageBytes {
			f.stats.PartialWrites++
		}
		programs += f.writePage(lpn)
	}
	return programs
}

// allocPage hands out the next NAND page, rolling the active block over
// when it is full. It never triggers GC itself, so it is safe to call
// from within a collection pass.
func (f *FTL) allocPage() int64 {
	ab := &f.blocks[f.active]
	if ab.written == f.cfg.PagesPerBlock {
		ab.inactive = true
		f.active = f.takeBlock()
		ab = &f.blocks[f.active]
	}
	ppn := int64(f.active)*int64(f.cfg.PagesPerBlock) + int64(ab.written)
	ab.written++
	ab.valid++
	return ppn
}

// programPage allocates and programs one NAND page, retrying past injected
// program failures. A failed page stays unmapped (rmap -1, valid count
// untouched) with the write pointer already past it, so invariants hold and
// the data lands on the next page. Every attempt programs NAND.
func (f *FTL) programPage() (ppn, programs int64) {
	for {
		ppn = f.allocPage()
		f.stats.NANDPages++
		programs++
		if f.progFail == nil || !f.progFail() {
			return ppn, programs
		}
		blk := int(ppn) / f.cfg.PagesPerBlock
		f.blocks[blk].valid--
		f.stats.ProgramFailures++
	}
}

// writePage maps one logical page to a fresh NAND page, running GC when
// free blocks fall to the watermark.
func (f *FTL) writePage(lpn int64) (programs int64) {
	// Invalidate the previous location.
	if old, ok := f.mapGet(lpn); ok {
		blk := int(old) / f.cfg.PagesPerBlock
		f.blocks[blk].valid--
		f.rmap[old] = -1
	} else {
		f.mapped++
	}
	ppn, programs := f.programPage()
	f.mapSet(lpn, ppn)
	f.rmap[ppn] = lpn
	f.stats.HostPages++

	if f.freeBlocksAvail() <= f.cfg.GCWatermark {
		programs += f.collect()
	}
	return programs
}

// Lookup reports the physical page holding lpn.
func (f *FTL) Lookup(lpn int64) (ppn int64, ok bool) {
	return f.mapGet(lpn)
}

// collect runs one GC pass: pick the fully-written block with the fewest
// valid pages, migrate them, erase it.
func (f *FTL) collect() (migrated int64) {
	victim := -1
	best := f.cfg.PagesPerBlock + 1
	for i := range f.blocks {
		b := &f.blocks[i]
		if !b.inactive || i == f.active {
			continue
		}
		if b.valid < best {
			best = b.valid
			victim = i
		}
	}
	if victim < 0 || best == f.cfg.PagesPerBlock {
		// No block has any invalid page: collection would only churn.
		// The next takeBlock failure reports genuine exhaustion.
		return 0
	}
	f.stats.GCRuns++
	vb := &f.blocks[victim]
	// Migrate valid pages to the active block (possibly cascading into
	// further blocks; writePage handles active-block turnover, and the
	// freshly erased victim guarantees forward progress).
	base := int64(victim) * int64(f.cfg.PagesPerBlock)
	for p := int64(0); p < int64(f.cfg.PagesPerBlock) && vb.valid > 0; p++ {
		ppn := base + p
		lpn := f.rmap[ppn]
		if lpn < 0 {
			continue
		}
		f.migratePage(lpn, ppn)
		migrated++
		f.stats.GCMigrations++
	}
	// Erase the victim.
	*vb = ftlBlock{erases: vb.erases + 1}
	f.stats.Erases++
	f.freeList = append(f.freeList, victim) // grows to the physical-block-count bound, then reuses capacity
	return migrated
}

// migratePage relocates one valid page during GC. The copy programs NAND
// (and may itself hit injected program failures) but is not a host write.
func (f *FTL) migratePage(lpn, oldPPN int64) {
	blk := int(oldPPN) / f.cfg.PagesPerBlock
	f.blocks[blk].valid--
	f.rmap[oldPPN] = -1
	ppn, _ := f.programPage()
	f.mapSet(lpn, ppn)
	f.rmap[ppn] = lpn
}

// CheckInvariants validates internal consistency (used by tests): every
// mapping has a matching reverse entry, per-block valid counts agree with
// the reverse map, and no physical page is double-mapped.
func (f *FTL) CheckInvariants() error {
	perBlock := make([]int, len(f.blocks))
	var mapped int64
	check := func(lpn, ppn int64) error {
		blk := int(ppn) / f.cfg.PagesPerBlock
		if blk >= len(f.blocks) {
			return fmt.Errorf("ftl: ppn %d beyond allocated blocks", ppn)
		}
		if int(ppn)%f.cfg.PagesPerBlock >= f.blocks[blk].written {
			return fmt.Errorf("ftl: ppn %d beyond block %d write pointer", ppn, blk)
		}
		if back := f.rmap[ppn]; back != lpn {
			return fmt.Errorf("ftl: mapping %d→%d lacks reverse entry", lpn, ppn)
		}
		perBlock[blk]++
		mapped++
		return nil
	}
	// Walk flat segments in index order, then overflow entries in sorted
	// LPN order, so the first inconsistency reported is the same on every
	// run.
	for si, s := range f.mapSegs {
		if s == nil {
			continue
		}
		for i, ppn := range s {
			if ppn < 0 {
				continue
			}
			if err := check(int64(si)<<mapSegBits+int64(i), ppn); err != nil {
				return err
			}
		}
	}
	oflpns := make([]int64, 0, len(f.overflow))
	for lpn := range f.overflow {
		oflpns = append(oflpns, lpn)
	}
	slices.Sort(oflpns)
	for _, lpn := range oflpns {
		if err := check(lpn, f.overflow[lpn]); err != nil {
			return err
		}
	}
	if mapped != f.mapped {
		return fmt.Errorf("ftl: mapped counter %d but %d table entries", f.mapped, mapped)
	}
	var rvalid int64
	for _, lpn := range f.rmap {
		if lpn >= 0 {
			rvalid++
		}
	}
	if rvalid != mapped {
		return fmt.Errorf("ftl: rmap size %d != mapping size %d", rvalid, mapped)
	}
	for i, b := range f.blocks {
		if perBlock[i] != b.valid {
			return fmt.Errorf("ftl: block %d valid=%d but %d mapped pages", i, b.valid, perBlock[i])
		}
	}
	return nil
}
