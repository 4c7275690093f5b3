package spdk

import (
	"fmt"

	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// StagedGPUIO is the classic SPDK-to-GPU data path: SSD ⇄ host staging
// buffer ⇄ cudaMemcpyAsync ⇄ GPU memory. Each application granule becomes
// one memcpy call, so small granules pay the launch overhead in full
// (Fig 16) and every byte crosses host DRAM twice (Figs 14–15).
type StagedGPUIO struct {
	d       *Driver
	ce      *gpu.CopyEngine
	staging *hostmem.Buffer

	// freeM recycles asynchronous staged-transfer machines.
	freeM sim.FreeList[stagedMachine]
}

// NewStagedGPUIO creates the helper with a staging buffer of the given
// size (must hold the largest single granule in flight). The buffer name
// uses a per-driver sequence number: a pointer-derived name would change
// with the host's address-space layout between identically-seeded runs,
// and would collide across helpers sharing one driver.
func NewStagedGPUIO(d *Driver, ce *gpu.CopyEngine, stagingBytes int64) *StagedGPUIO {
	d.stagedSeq++
	return &StagedGPUIO{
		d:       d,
		ce:      ce,
		staging: d.hm.Alloc(fmt.Sprintf("spdk.staging.%d", d.stagedSeq), stagingBytes),
	}
}

// ReadToGPUAsync reads n bytes from dev starting at slba into gpuDst (one
// application granule): SSD commands are split at the device MDTS; when all
// land in staging, a single cudaMemcpyAsync moves the granule to the GPU.
// onDone runs (engine-callback context) once it is resident in GPU memory.
func (s *StagedGPUIO) ReadToGPUAsync(dev int, slba uint64, gpuDst *gpu.Buffer, dstOff, n int64, onDone sim.Callback) {
	m := s.freeM.Get()
	m.s, m.read, m.dev, m.slba = s, true, dev, slba
	m.buf, m.bufOff, m.n = gpuDst, dstOff, n
	m.onDone = onDone
	m.submit(nvme.OpRead)
}

// WriteFromGPUAsync writes n bytes from gpuSrc to dev at slba: one memcpy
// GPU→staging, then SSD writes from staging; onDone runs when they complete.
func (s *StagedGPUIO) WriteFromGPUAsync(dev int, slba uint64, gpuSrc *gpu.Buffer, srcOff, n int64, onDone sim.Callback) {
	m := s.freeM.Get()
	m.s, m.read, m.dev, m.slba = s, false, dev, slba
	m.buf, m.bufOff, m.n = gpuSrc, srcOff, n
	m.onDone = onDone
	// One memcpy GPU→staging first, then the SSD writes from staging.
	s.d.hm.ReserveTraffic(n)
	end := s.ce.ReserveCopy(n)
	mem.PayloadCopy(s.staging.Payload(), 0, gpuSrc.Payload(), srcOff, n)
	s.d.e.ScheduleCallback(end-s.d.e.Now(), m)
}

// stagedMachine runs one staged granule transfer as a callback state
// machine: NVMe fan-in on one side of the staging buffer, a copy-engine
// reservation on the other.
type stagedMachine struct {
	s         *StagedGPUIO
	read      bool
	dev       int
	slba      uint64
	buf       *gpu.Buffer
	bufOff, n int64
	remaining int
	copied    bool
	onDone    sim.Callback
}

// submit issues the granule's MDTS-split commands with the machine as the
// completion sink.
func (m *stagedMachine) submit(op nvme.Opcode) {
	s := m.s
	if m.n > s.staging.Size() || m.n%nvme.LBASize != 0 {
		panic("spdk: granule must be a multiple of 512 that fits the staging buffer")
	}
	m.remaining = 1 // submission hold
	var off int64
	for off < m.n {
		chunk := m.n - off
		if chunk > maxXfer {
			chunk = maxXfer
		}
		r := s.d.GetRequest()
		r.Op, r.Dev = op, m.dev
		r.SLBA = m.slba + uint64(off)/nvme.LBASize
		r.NLB = uint32(chunk / nvme.LBASize)
		r.Addr = s.staging.Addr + mem.Addr(off)
		r.Sink = m
		m.remaining++
		s.d.Submit(r)
		off += chunk
	}
	m.fanin(-1)
}

// RequestDone implements Completion (reactor context).
func (m *stagedMachine) RequestDone(r *Request) { m.fanin(-1) }

func (m *stagedMachine) fanin(delta int) {
	m.remaining += delta
	if m.remaining != 0 {
		return
	}
	s := m.s
	if m.read {
		// All chunks landed in staging: one memcpy per granule moves it to
		// the GPU, and the read leg crosses DRAM once more.
		s.d.hm.ReserveTraffic(m.n)
		end := s.ce.ReserveCopy(m.n)
		mem.PayloadCopy(m.buf.Payload(), m.bufOff, s.staging.Payload(), 0, m.n)
		m.copied = true
		s.d.e.ScheduleCallback(end-s.d.e.Now(), m)
		return
	}
	m.finish()
}

// Run resumes the machine after a scheduled copy completes: for reads this
// is the final hop; for writes it is the staging copy, which unblocks the
// SSD submissions (engine-callback context).
func (m *stagedMachine) Run() {
	if m.read {
		m.finish()
		return
	}
	m.submit(nvme.OpWrite)
}

func (m *stagedMachine) finish() {
	s, onDone := m.s, m.onDone
	*m = stagedMachine{}
	s.freeM.Put(m)
	onDone.Run()
}
