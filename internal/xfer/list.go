// List transfers: one batched operation over an arbitrary set of blocks,
// each with its own offset inside the GPU buffer. Contiguous-range
// transfers (Backend.StartRead/StartWrite) serve the figure workloads,
// whose working sets are flat spans; a tiered cache instead fills and
// spills whatever frames its eviction policy hands it, so the block list
// and the frame list are both scattered. Staging through a contiguous
// bounce buffer would re-serialize exactly the copies the direct data
// plane exists to avoid — the list path keeps scatter-gather batches on
// each backend's native mechanism instead.
package xfer

import (
	"camsim/internal/gpu"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// ListBackend is implemented by backends that can move an arbitrary block
// set in one batched operation: block blocks[i] maps to buffer offset
// offs[i]. CAM publishes (block, offset) pairs in region 1, BaM threads
// the offsets through its batch machine, and SPDK dispatches each block
// as its own staged granule (it stages per granule anyway, so scattered
// targets cost nothing extra — the helper-pool bound is the serializer).
// On each of them a range transfer is the same batch with computed
// offsets, and the slices are the caller's again as soon as a Start method
// returns.
type ListBackend interface {
	Backend
	// StartGatherList begins an asynchronous batched read of the blocks
	// into dst at the matching offsets.
	StartGatherList(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, offs []int64) Handle
	// StartScatterList begins an asynchronous batched write of the blocks
	// from src at the matching offsets.
	StartScatterList(p *sim.Proc, blocks []uint64, src *gpu.Buffer, offs []int64) Handle
}

// GatherList performs a synchronous list gather on any list backend.
func GatherList(p *sim.Proc, b ListBackend, blocks []uint64, dst *gpu.Buffer, offs []int64) {
	b.StartGatherList(p, blocks, dst, offs).Wait(p)
}

// ----- CAM -----

// StartGatherList publishes one indexed prefetch batch.
func (b *CAMBackend) StartGatherList(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, offs []int64) Handle {
	if len(blocks) == 0 {
		return doneHandle{}
	}
	return b.M.PrefetchList(p, blocks, dst, offs)
}

// StartScatterList publishes one indexed write_back batch.
func (b *CAMBackend) StartScatterList(p *sim.Proc, blocks []uint64, src *gpu.Buffer, offs []int64) Handle {
	if len(blocks) == 0 {
		return doneHandle{}
	}
	return b.M.WriteBackList(p, blocks, src, offs)
}

// ----- BaM -----

// StartGatherList drives one list-batch machine; the SM pin covers the
// whole batch, exactly as for contiguous gathers.
func (b *BaMBackend) StartGatherList(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, offs []int64) Handle {
	h := b.carve(len(blocks))
	b.arr.Start(nvme.OpRead, blocks, dst, 0, offs, h)
	return h
}

// StartScatterList drives one list-batch machine in the write direction.
func (b *BaMBackend) StartScatterList(p *sim.Proc, blocks []uint64, src *gpu.Buffer, offs []int64) Handle {
	h := b.carve(len(blocks))
	b.arr.Start(nvme.OpWrite, blocks, src, 0, offs, h)
	return h
}
