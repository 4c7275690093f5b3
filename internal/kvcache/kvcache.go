// Package kvcache is the repo's first write-under-load workload: an
// SSD-backed KV cache for multi-session LLM decode serving, in the style
// of Tutti (PAPERS.md) layered over the CAM simulation.
//
// Each serving session holds per-layer key/value blocks (BlockTokens
// tokens per block). The working set lives in a GPU-DRAM tier of
// fixed-size frames; blocks the tier cannot hold spill to the simulated
// SSD array and are filled back on demand. Every decode step attends a
// deterministic set of blocks per layer — a recency window plus a skewed
// sample of older context (attention sinks: early prompt blocks stay
// hot). Because the set is a pure function of (session, step, layer),
// the prefetcher computes step t+1's set during step t and issues one
// batched scatter-gather read ahead of time through the backend's list
// path (xfer.ListBackend), so fills overlap the decode kernel exactly
// the way CAM's async batches are meant to be used.
//
// Blocks are immutable once written, so a refetched block is clean and a
// clean eviction is free; only first-time spills write. Every block
// carries a 32-byte content stamp derived from its key, giving end-to-end
// data-plane verification (decoded-token checksums) without
// materializing whole buffers.
package kvcache

import (
	"encoding/binary"
	"fmt"

	"camsim/internal/calib"
)

// Config tunes the serving workload. The per-token prefill and decode
// kernel costs and the stagger between session arrivals (session i arrives
// at i × calib.KVArrivalGap, so time-to-first-token sees queueing) are calib
// rows.
type Config struct {
	// Layers is the transformer depth; each layer owns one KV block set.
	Layers int
	// BlockTokens is the tokens per KV block (the spill granularity).
	BlockTokens int
	// BlockBytes is the bytes per KV block per layer — the backend's
	// transfer granularity.
	BlockBytes int64
	// DRAMBlocks sizes the GPU-DRAM tier in frames. It must cover the
	// worst-case concurrently pinned set (every session's per-step
	// working set) plus one eviction batch; New panics otherwise, since
	// an undersized tier deadlocks rather than degrades.
	DRAMBlocks int
	// Window is the recency window: the last Window blocks of each layer
	// are attended every step.
	Window int
	// TopK is how many older context blocks each layer attends per step,
	// drawn from a sink-skewed distribution (early blocks are hot).
	TopK int
	// EvictBatch is how many victims one eviction round selects; dirty
	// victims spill in a single batched write.
	EvictBatch int
	// Seed keys the stamp contents and the attention sampling.
	Seed uint64
}

// DefaultConfig returns a serving setup sized for the quick harness
// scale: four sessions of a four-layer model keep the tier under enough
// pressure that roughly two thirds of the context lives on SSD.
func DefaultConfig() Config {
	return Config{
		Layers:      4,
		BlockTokens: calib.KVBlockTokens(),
		BlockBytes:  calib.KVBlockBytes(),
		DRAMBlocks:  96,
		Window:      calib.KVWindow(),
		TopK:        calib.KVTopK(),
		EvictBatch:  calib.KVEvictBatch(),
		Seed:        1,
	}
}

// SessionSpec describes one serving session: its prompt length and how
// many tokens it decodes.
type SessionSpec struct {
	Prompt int
	Decode int
}

// Key identifies one KV block: (session, layer, block) packed into a
// 64-bit word whose natural order gives deterministic tie-breaks.
// Sessions fit 24 bits, layers 8, block indices 32.
type Key uint64

// MakeKey packs a block identity.
func MakeKey(sess, layer, blk int) Key {
	if sess < 0 || sess >= 1<<24 || layer < 0 || layer >= 1<<8 || blk < 0 || int64(blk) >= 1<<32 {
		panic(fmt.Sprintf("kvcache: key out of range: sess=%d layer=%d blk=%d", sess, layer, blk))
	}
	return Key(uint64(sess)<<40 | uint64(layer)<<32 | uint64(blk))
}

// Session unpacks the session index.
func (k Key) Session() int { return int(k >> 40) }

// Layer unpacks the layer index.
func (k Key) Layer() int { return int(k>>32) & 0xff }

// Block unpacks the block index.
func (k Key) Block() int { return int(k & 0xffffffff) }

func (k Key) String() string {
	return fmt.Sprintf("s%d/l%d/b%d", k.Session(), k.Layer(), k.Block())
}

// mix64 is a splitmix64 finalizer: the stamp and sampling hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stampBytes is the content-stamp size at the head of every KV block.
const stampBytes = 32

// putStamp writes key's 32-byte content stamp: key, seed, and two mixed
// words over both. The payload past the stamp stays zero — the data
// plane moves it by reference either way.
func putStamp(dst []byte, key Key, seed uint64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(key))
	binary.LittleEndian.PutUint64(dst[8:], seed)
	h := mix64(uint64(key) ^ seed)
	binary.LittleEndian.PutUint64(dst[16:], h)
	binary.LittleEndian.PutUint64(dst[24:], mix64(h))
}

// stampSum is the analytic checksum of key's stamp — what a correct data
// plane must deliver, computed without touching any buffer.
func stampSum(key Key, seed uint64) uint64 {
	h := mix64(uint64(key) ^ seed)
	return uint64(key) ^ seed ^ h ^ mix64(h)
}

// readSum folds a stamp read back from a buffer into the same form as
// stampSum.
func readSum(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b[0:]) ^
		binary.LittleEndian.Uint64(b[8:]) ^
		binary.LittleEndian.Uint64(b[16:]) ^
		binary.LittleEndian.Uint64(b[24:])
}

// checkStamp verifies a stamp read back from the data plane.
func checkStamp(b []byte, key Key, seed uint64) error {
	if got, want := Key(binary.LittleEndian.Uint64(b[0:])), key; got != want {
		return fmt.Errorf("kvcache: block %v stamp names %v", want, got)
	}
	if readSum(b) != stampSum(key, seed) {
		return fmt.Errorf("kvcache: block %v stamp corrupt", key)
	}
	return nil
}

// accum folds one block checksum into a running decoded-token checksum.
// Both sides (actual reads and analytic expectation) fold in the same
// access order, so the result is backend- and timing-independent.
func accum(sum, v uint64) uint64 {
	return mix64(sum ^ v)
}
