package mem

import (
	"sync"
)

// backingPool recycles buffer backing slices across GPU and host-DRAM
// buffer instances. Figure workloads construct a fresh platform per
// measured configuration, and the multi-megabyte feature/staging buffers
// allocated each time dominated the heap churn of the whole suite: every
// make() recycled a dirty span (a forced memclr) and kept the collector
// scanning gigabytes of transient arenas. Freed backings are handed back
// verbatim and re-zeroed on the way out, so a pooled allocation observes
// exactly the zeroed-memory contract a fresh make() provides.
var backingPool struct {
	mu    sync.Mutex
	slabs [][]byte
}

// backingMinBytes keeps small allocations (queue memory, doorbell words)
// out of the pool: they are cheap to make fresh, and letting an 8-byte
// request claim a multi-megabyte slab would strand it on a long-lived tiny
// buffer.
const backingMinBytes = 1 << 20

// BackingGet returns a zeroed slice of length n, preferring the smallest
// pooled slab that fits. Only slabs within 4x of the request qualify, so a
// small buffer never wastes a much larger recycled arena.
func BackingGet(n int64) []byte {
	if n < backingMinBytes {
		return make([]byte, n) // small control allocations deliberately bypass the slab pool
	}
	backingPool.mu.Lock()
	best := -1
	for i, s := range backingPool.slabs {
		if int64(cap(s)) >= n && int64(cap(s)) <= 4*n && (best < 0 || cap(s) < cap(backingPool.slabs[best])) {
			best = i
		}
	}
	var data []byte
	if best >= 0 {
		last := len(backingPool.slabs) - 1
		data = backingPool.slabs[best][:n]
		backingPool.slabs[best] = backingPool.slabs[last]
		backingPool.slabs[last] = nil
		backingPool.slabs = backingPool.slabs[:last]
	}
	backingPool.mu.Unlock()
	if data == nil {
		return make([]byte, n) // pool-miss cold path: steady state recycles slabs
	}
	// Re-zero the handed-out range. The scan-first order matters: recycled
	// buffers are usually still zero (sparse datasets read zeros into them),
	// and the vectorized compare is cheaper than an unconditional clear that
	// would dirty every cache line it touches.
	zeroFill(data)
	return data
}

// zeroRef is the reference block BackingGet compares recycled memory
// against.
var zeroRef [4096]byte

// BackingPut returns a backing slice to the pool at full capacity.
func BackingPut(b []byte) {
	if cap(b) < backingMinBytes {
		return
	}
	backingPool.mu.Lock()
	backingPool.slabs = append(backingPool.slabs, b[:cap(b)])
	backingPool.mu.Unlock()
}
