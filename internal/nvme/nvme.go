// Package nvme implements the NVMe wire structures shared by every I/O
// stack in the reproduction: 64-byte submission queue entries, 16-byte
// completion queue entries with phase bits, ring queues with doorbells, and
// queue pairs.
//
// The encodings are real binary layouts over real memory regions (which may
// live in host DRAM — the kernel stacks, SPDK, CAM — or in GPU HBM — BaM),
// so the same controller-side consumption code serves every management
// scheme in the paper, exactly as a real SSD controller would. Rings keep
// typed entries and render the layout into ring memory on Sync.
//
// Layout deviations from the NVMe 1.4 specification are deliberate
// simplifications and documented on each type: NLB is one-based, PRP lists
// are a single contiguous PRP1 range, and status codes are collapsed to a
// small enum.
package nvme

import (
	"encoding/binary"
	"errors"
	"fmt"

	"camsim/internal/sim"
)

// SQESize is the submission queue entry size in bytes (as in the spec).
const SQESize = 64

// CQESize is the completion queue entry size in bytes (as in the spec).
const CQESize = 16

// LBASize is the logical block size. The paper's access granularities are
// multiples of 512 B.
const LBASize = 512

// Opcode identifies an NVM command.
type Opcode uint8

// NVM command set opcodes (matching the spec values).
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02
)

func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "Flush"
	case OpWrite:
		return "Write"
	case OpRead:
		return "Read"
	default:
		return fmt.Sprintf("Opcode(%#x)", uint8(o))
	}
}

// Status is a collapsed NVMe completion status.
type Status uint8

// Completion statuses.
const (
	StatusSuccess Status = iota
	StatusInvalidOpcode
	StatusLBAOutOfRange
	StatusDMAError
	// StatusMediaError is an unrecovered media error (spec: media and data
	// integrity class); the command moved no data. Transient in this model:
	// injected per-command, so a retry may succeed.
	StatusMediaError
	// StatusCmdTimeout is host-synthesized, never posted by a controller:
	// the driver gave up waiting for a CQE and aborted the command.
	StatusCmdTimeout
	// StatusDevFailed is host-synthesized: the device was declared dead
	// after repeated timeouts and the command failed fast without reaching
	// hardware.
	StatusDevFailed
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "Success"
	case StatusInvalidOpcode:
		return "InvalidOpcode"
	case StatusLBAOutOfRange:
		return "LBAOutOfRange"
	case StatusDMAError:
		return "DMAError"
	case StatusMediaError:
		return "MediaError"
	case StatusCmdTimeout:
		return "CmdTimeout"
	case StatusDevFailed:
		return "DevFailed"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Retryable reports whether a failed command is worth re-submitting:
// transient media errors and timeouts are; structural errors (bad opcode,
// out-of-range LBA, unresolvable DMA address) and dead devices are not.
func (s Status) Retryable() bool {
	return s == StatusMediaError || s == StatusCmdTimeout
}

// SQE is a submission queue entry.
//
// Deviation: NLB is one-based (the spec's is zero-based) and the data
// pointer is a single contiguous physical range in PRP1 (no PRP2/SGL).
type SQE struct {
	Opcode Opcode
	CID    uint16 // command identifier, echoed in the CQE
	NSID   uint32 // namespace (always 1 here)
	PRP1   uint64 // physical address of the data buffer
	SLBA   uint64 // starting LBA
	NLB    uint32 // number of logical blocks (one-based)
}

// Bytes reports the data transfer length of the command.
func (s *SQE) Bytes() int64 { return int64(s.NLB) * LBASize }

// Marshal encodes the entry into dst (len >= SQESize).
func (s *SQE) Marshal(dst []byte) {
	_ = dst[SQESize-1]
	for i := range dst[:SQESize] {
		dst[i] = 0
	}
	dst[0] = byte(s.Opcode)
	binary.LittleEndian.PutUint16(dst[2:], s.CID)
	binary.LittleEndian.PutUint32(dst[4:], s.NSID)
	binary.LittleEndian.PutUint64(dst[24:], s.PRP1)
	binary.LittleEndian.PutUint64(dst[40:], s.SLBA)
	binary.LittleEndian.PutUint32(dst[48:], s.NLB)
}

// UnmarshalSQE decodes an entry from src (len >= SQESize).
func UnmarshalSQE(src []byte) SQE {
	_ = src[SQESize-1]
	return SQE{
		Opcode: Opcode(src[0]),
		CID:    binary.LittleEndian.Uint16(src[2:]),
		NSID:   binary.LittleEndian.Uint32(src[4:]),
		PRP1:   binary.LittleEndian.Uint64(src[24:]),
		SLBA:   binary.LittleEndian.Uint64(src[40:]),
		NLB:    binary.LittleEndian.Uint32(src[48:]),
	}
}

// CQE is a completion queue entry. The phase bit lives in bit 0 of the
// status word, as in the spec.
type CQE struct {
	CID    uint16
	SQHead uint16
	Status Status
	Phase  bool
}

// Marshal encodes the entry into dst (len >= CQESize).
func (c *CQE) Marshal(dst []byte) {
	_ = dst[CQESize-1]
	for i := range dst[:CQESize] {
		dst[i] = 0
	}
	binary.LittleEndian.PutUint16(dst[8:], c.SQHead)
	binary.LittleEndian.PutUint16(dst[12:], c.CID)
	sf := uint16(c.Status) << 1
	if c.Phase {
		sf |= 1
	}
	binary.LittleEndian.PutUint16(dst[14:], sf)
}

// UnmarshalCQE decodes an entry from src (len >= CQESize).
func UnmarshalCQE(src []byte) CQE {
	_ = src[CQESize-1]
	sf := binary.LittleEndian.Uint16(src[14:])
	return CQE{
		CID:    binary.LittleEndian.Uint16(src[12:]),
		SQHead: binary.LittleEndian.Uint16(src[8:]),
		Status: Status(sf >> 1),
		Phase:  sf&1 == 1,
	}
}

// Errors returned by queue operations.
var (
	ErrQueueFull  = errors.New("nvme: queue full")
	ErrQueueEmpty = errors.New("nvme: queue empty")
)

// SQ is the submission ring of an I/O queue pair. The host produces at the
// tail and rings the doorbell; the controller consumes at the head.
//
// The typed slots are the ring's content. The registered ring memory holds
// the NVMe wire image of those slots only after Sync: nothing in the
// simulator parses it, so encoding 64 bytes per command on every Push would
// be work no one reads. Anything that does look at ring memory (a test, a
// dump, a fault injector) calls Sync first.
type SQ struct {
	slots    []SQE
	head     uint32 // controller-side consume count
	tail     uint32 // host-side produce count
	headSlot uint32 // head modulo size, kept by wrapping instead of dividing
	tailSlot uint32 // tail modulo size
	synced   uint32 // produce count the wire image is current up to
	memory   []byte

	// Doorbell fires when the host publishes new tail values; the
	// controller process waits on it instead of burning events polling.
	Doorbell *sim.Signal
}

// NewSQ creates a submission ring over memory (len = depth*SQESize),
// typically a host or GPU buffer registered in the platform address space.
// depth lies in [2, MaxQueueDepth].
func NewSQ(e *sim.Engine, name string, memory []byte, depth uint32) *SQ {
	if depth < 2 || depth > MaxQueueDepth {
		panic(fmt.Sprintf("nvme: SQ %q depth %d outside [2, %d]", name, depth, MaxQueueDepth))
	}
	if uint32(len(memory)) != depth*SQESize {
		panic(fmt.Sprintf("nvme: SQ %q memory %d bytes, want %d", name, len(memory), depth*SQESize))
	}
	return &SQ{slots: make([]SQE, depth), memory: memory, Doorbell: e.NewSignal(name + ".sqdb")}
}

// Len reports how many entries are waiting for the controller.
func (q *SQ) Len() uint32 { return q.tail - q.head }

// Full reports whether the ring has no free slot. One slot is kept free to
// distinguish full from empty, as in the spec.
func (q *SQ) Full() bool { return q.tail-q.head == uint32(len(q.slots))-1 }

// Push writes an entry at the tail and advances it. The caller still must
// ring the doorbell (Ring) for the controller to notice — splitting the two
// models batched doorbell writes.
func (q *SQ) Push(e SQE) error {
	if q.Full() {
		return ErrQueueFull
	}
	q.slots[q.tailSlot] = e
	q.tail++
	if q.tailSlot++; q.tailSlot == uint32(len(q.slots)) {
		q.tailSlot = 0
	}
	return nil
}

// Ring publishes the tail to the controller (doorbell write).
func (q *SQ) Ring() { q.Doorbell.Fire() }

// Pop consumes the entry at the head (controller side).
func (q *SQ) Pop() (e SQE, err error) {
	if q.tail == q.head {
		return e, ErrQueueEmpty
	}
	e = q.slots[q.headSlot]
	q.head++
	if q.headSlot++; q.headSlot == uint32(len(q.slots)) {
		q.headSlot = 0
	}
	return e, nil
}

// Head reports the controller consume index (for CQE SQHead fields).
func (q *SQ) Head() uint32 { return q.head }

// Sync renders every entry pushed since the last Sync into ring memory, so
// the memory equals what marshalling each entry at Push time would have
// left there.
func (q *SQ) Sync() {
	render[SQE, *SQE](q.slots, q.memory, q.tailSlot, q.tail-q.synced)
	q.synced = q.tail
}

// wire is an entry type E with a fixed-size binary encoding.
type wire[E any] interface {
	*E
	Marshal(dst []byte)
}

// render marshals the n most recent entries of a ring — the ones ending just
// before tailSlot — into its memory. Entries more than one lap old were
// overwritten in place, so at most len(slots) are rendered.
func render[E any, P wire[E]](slots []E, memory []byte, tailSlot, n uint32) {
	size := uint32(len(slots))
	stride := uint32(len(memory)) / size
	slot := tailSlot
	for n = min(n, size); n > 0; n-- {
		if slot == 0 {
			slot = size
		}
		slot--
		P(&slots[slot]).Marshal(memory[slot*stride:])
	}
}

// CQ is a completion ring. The controller produces with alternating phase
// bits; the host consumes by polling the phase of the next slot. Like SQ it
// keeps typed slots and renders the wire image on Sync.
type CQ struct {
	slots    []CQE
	tail     uint32 // controller-side produce count
	head     uint32 // host-side consume count
	tailSlot uint32 // tail modulo size
	headSlot uint32 // head modulo size
	synced   uint32 // produce count the wire image is current up to
	phase    bool   // controller's phase for the current lap
	hostPh   bool   // phase value the host expects next
	memory   []byte

	// OnPost fires every time the controller posts; pollers that have
	// drained the ring wait on it (and Reset it) rather than spinning.
	OnPost *sim.Signal
}

// NewCQ creates a completion ring of the given depth, in [2, MaxQueueDepth],
// over memory (len must be depth*CQESize). Phase starts at 1 for the first
// lap, per the spec.
func NewCQ(e *sim.Engine, name string, memory []byte, depth uint32) *CQ {
	if depth < 2 || depth > MaxQueueDepth {
		panic(fmt.Sprintf("nvme: CQ %q depth %d outside [2, %d]", name, depth, MaxQueueDepth))
	}
	if uint32(len(memory)) != depth*CQESize {
		panic(fmt.Sprintf("nvme: CQ %q memory %d bytes, want %d", name, len(memory), depth*CQESize))
	}
	return &CQ{slots: make([]CQE, depth), memory: memory, phase: true, hostPh: true, OnPost: e.NewSignal(name + ".cqpost")}
}

// Len reports completions waiting for the host.
func (q *CQ) Len() uint32 { return q.tail - q.head }

// Full reports whether posting would overwrite an unconsumed entry.
func (q *CQ) Full() bool { return q.tail-q.head == uint32(len(q.slots)) }

// Post writes a completion (controller side) with the current phase and
// fires OnPost. Posting into a full ring is a controller bug → panic.
func (q *CQ) Post(c CQE) {
	if q.Full() {
		panic("nvme: CQ overflow — controller posted into full ring")
	}
	c.Phase = q.phase
	q.slots[q.tailSlot] = c
	q.tail++
	if q.tailSlot++; q.tailSlot == uint32(len(q.slots)) {
		q.tailSlot = 0
		q.phase = !q.phase
	}
	q.OnPost.Fire()
}

// Poll consumes the next completion if its phase matches (host side).
func (q *CQ) Poll() (CQE, bool) {
	c := q.slots[q.headSlot]
	if c.Phase != q.hostPh {
		return CQE{}, false
	}
	q.head++
	if q.headSlot++; q.headSlot == uint32(len(q.slots)) {
		q.headSlot = 0
		q.hostPh = !q.hostPh
	}
	return c, true
}

// Sync renders every completion posted since the last Sync into ring
// memory; see SQ.Sync.
func (q *CQ) Sync() {
	render[CQE, *CQE](q.slots, q.memory, q.tailSlot, q.tail-q.synced)
	q.synced = q.tail
}

// QueuePair couples one SQ and one CQ, the unit of ownership in every
// driver: SPDK and CAM dedicate one pair per (thread, SSD); BaM allocates
// many pairs in GPU memory.
type QueuePair struct {
	Name string
	SQ   *SQ
	CQ   *CQ
}

// NewQueuePair builds a pair of rings of the same depth over the two memory
// regions.
func NewQueuePair(e *sim.Engine, name string, sqMem, cqMem []byte, depth uint32) *QueuePair {
	return &QueuePair{
		Name: name,
		SQ:   NewSQ(e, name, sqMem, depth),
		CQ:   NewCQ(e, name, cqMem, depth),
	}
}

// Sync brings both rings' memory up to date with their typed slots. Call it
// before reading ring memory.
func (qp *QueuePair) Sync() {
	qp.SQ.Sync()
	qp.CQ.Sync()
}

// InFlight reports commands submitted but not yet consumed as completions.
func (qp *QueuePair) InFlight() uint64 { return uint64(qp.SQ.tail - qp.CQ.head) }
