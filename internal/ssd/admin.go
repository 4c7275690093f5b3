package ssd

import (
	"fmt"

	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// Admin queue support: the NVMe control path through which a real driver
// discovers the controller (Identify) and creates/deletes I/O queue pairs.
// Device.CreateQueuePair remains as the equivalent boot-time fast path the
// drivers use; AdminClient exercises the full wire protocol.

// adminProcessTime is the controller's handling cost per admin command.
const adminProcessTime = 20 * sim.Microsecond

// adminState is the device-side admin machinery.
type adminState struct {
	sq *nvme.AdminSQ
	cq *nvme.CQ
	// pendingCQs holds CreateIOCQ registrations awaiting their SQ.
	pendingCQs map[uint16]*nvme.CQ
	// ioQueues maps qid → live queue pair.
	ioQueues map[uint16]*nvme.QueuePair
}

// EnableAdmin attaches admin rings (host memory) to the device. Call
// before the simulation runs; the controller picks the rings up on its
// next loop.
func (d *Device) EnableAdmin(sqMem, cqMem []byte, depth uint32) {
	if d.admin != nil {
		panic("ssd: EnableAdmin called twice on " + d.Name)
	}
	d.admin = &adminState{
		sq:         nvme.NewAdminSQ(d.e, d.Name+".admin", sqMem, depth),
		cq:         nvme.NewCQ(d.e, d.Name+".admincq", cqMem, depth),
		pendingCQs: make(map[uint16]*nvme.CQ),
		ioQueues:   make(map[uint16]*nvme.QueuePair),
	}
	// Wake the controller on admin doorbells too.
	newDBRelay(d, d.admin.sq.Doorbell)
}

// dbRelay forwards one submission queue's doorbell onto the controller's
// any-doorbell signal. It is a callback state machine parked on the queue
// doorbell.
type dbRelay struct {
	d   *Device
	sig *sim.Signal
}

func newDBRelay(d *Device, sig *sim.Signal) {
	r := &dbRelay{d: d, sig: sig}
	sig.WaitCallback(0, r)
}

// Run acknowledges the queue doorbell and rings the controller
// (engine-callback context).
func (r *dbRelay) Run() {
	r.sig.Reset()
	r.d.kickCtrl()
	r.sig.WaitCallback(0, r)
}

// RingAdmin publishes admin submissions.
func (d *Device) RingAdmin() {
	if d.admin == nil {
		panic("ssd: RingAdmin without EnableAdmin on " + d.Name)
	}
	d.admin.sq.Ring()
	d.kickCtrl()
}

// AdminCQ exposes the admin completion ring for host polling.
func (d *Device) AdminCQ() *nvme.CQ {
	if d.admin == nil {
		return nil
	}
	return d.admin.cq
}

// IOQueuePair reports an admin-created queue pair by id.
func (d *Device) IOQueuePair(qid uint16) (*nvme.QueuePair, bool) {
	if d.admin == nil {
		return nil, false
	}
	qp, ok := d.admin.ioQueues[qid]
	return qp, ok
}

// IdentifyData reports the controller identification this device returns.
func (d *Device) IdentifyData() nvme.IdentifyData {
	return nvme.IdentifyData{
		Serial:       "CAMSIM-" + d.Name,
		Model:        "camsim P5510-class NVMe SSD",
		CapacityLBAs: d.store.CapacityLBAs(),
		MDTSBytes:    128 << 10,
		MaxQueues:    256,
	}
}

// drainAdmin processes pending admin commands; returns whether any ran.
func (d *Device) drainAdmin() bool {
	if d.admin == nil {
		return false
	}
	progressed := false
	for {
		a, err := d.admin.sq.Pop()
		if err != nil {
			break
		}
		progressed = true
		cmd := a
		d.e.Schedule(adminProcessTime, func() { d.executeAdmin(cmd) })
	}
	return progressed
}

// executeAdmin runs one admin command and posts its completion.
func (d *Device) executeAdmin(a nvme.AdminSQE) {
	st := nvme.StatusSuccess
	switch a.Opcode {
	case nvme.AdminIdentify:
		buf, _, err := d.space.Resolve(mem.Addr(a.PRP1), 4096)
		if err != nil {
			st = nvme.StatusDMAError
			break
		}
		id := d.IdentifyData()
		id.Marshal(buf)

	case nvme.AdminCreateIOCQ:
		st = d.adminCreateCQ(a)

	case nvme.AdminCreateIOSQ:
		st = d.adminCreateSQ(a)

	case nvme.AdminDeleteIOSQ:
		qp, ok := d.admin.ioQueues[a.QID]
		if !ok {
			st = nvme.StatusInvalidQID
			break
		}
		// Deleting the SQ retires the pair from the poll set; the CQ
		// lives until DeleteIOCQ.
		d.removeQP(qp)
		d.admin.pendingCQs[a.QID] = qp.CQ
		delete(d.admin.ioQueues, a.QID)

	case nvme.AdminDeleteIOCQ:
		if _, ok := d.admin.pendingCQs[a.QID]; !ok {
			st = nvme.StatusInvalidQID
			break
		}
		delete(d.admin.pendingCQs, a.QID)

	default:
		st = nvme.StatusInvalidOpcode
	}
	d.admin.cq.Post(nvme.CQE{CID: a.CID, Status: st})
}

func (d *Device) adminCreateCQ(a nvme.AdminSQE) nvme.Status {
	if a.QID == 0 {
		return nvme.StatusInvalidQID
	}
	if _, dup := d.admin.pendingCQs[a.QID]; dup {
		return nvme.StatusQIDInUse
	}
	if _, dup := d.admin.ioQueues[a.QID]; dup {
		return nvme.StatusQIDInUse
	}
	if a.QSize < 2 {
		return nvme.StatusInvalidQSize
	}
	memBytes := int(a.QSize) * nvme.CQESize
	buf, _, err := d.space.Resolve(mem.Addr(a.PRP1), memBytes)
	if err != nil {
		return nvme.StatusDMAError
	}
	d.admin.pendingCQs[a.QID] = nvme.NewCQ(d.e, fmt.Sprintf("%s.ioq%d", d.Name, a.QID), buf, uint32(a.QSize))
	return nvme.StatusSuccess
}

func (d *Device) adminCreateSQ(a nvme.AdminSQE) nvme.Status {
	if a.QID == 0 {
		return nvme.StatusInvalidQID
	}
	cq, ok := d.admin.pendingCQs[a.CQID]
	if !ok {
		return nvme.StatusInvalidQID
	}
	if _, dup := d.admin.ioQueues[a.QID]; dup {
		return nvme.StatusQIDInUse
	}
	if a.QSize < 2 {
		return nvme.StatusInvalidQSize
	}
	memBytes := int(a.QSize) * nvme.SQESize
	buf, _, err := d.space.Resolve(mem.Addr(a.PRP1), memBytes)
	if err != nil {
		return nvme.StatusDMAError
	}
	qp := &nvme.QueuePair{
		Name: fmt.Sprintf("%s.ioq%d", d.Name, a.QID),
		SQ:   nvme.NewSQ(d.e, fmt.Sprintf("%s.ioq%d", d.Name, a.QID), buf, uint32(a.QSize)),
		CQ:   cq,
	}
	delete(d.admin.pendingCQs, a.CQID)
	d.admin.ioQueues[a.QID] = qp
	d.addQP(qp, uint32(a.QSize))
	// The controller must notice submissions on the new queue.
	newDBRelay(d, qp.SQ.Doorbell)
	return nvme.StatusSuccess
}

// removeQP drops a queue pair from the controller's poll set. Commands
// already fetched from it keep their ioQueue and drain through it.
func (d *Device) removeQP(qp *nvme.QueuePair) {
	for i, q := range d.qps {
		if q.qp == qp {
			q.removed = true
			d.qps = append(d.qps[:i], d.qps[i+1:]...)
			return
		}
	}
}

// AdminClient is the host-side admin path: it owns the admin rings and
// provides synchronous wrappers for the admin commands.
type AdminClient struct {
	e   *sim.Engine
	dev *Device
	sq  *nvme.AdminSQ
	cq  *nvme.CQ
	cid uint16
}

// NewAdminClient allocates admin rings in host memory and attaches them to
// the device. Must be called before the device starts.
func NewAdminClient(e *sim.Engine, dev *Device, hm *hostmem.Memory) *AdminClient {
	const depth = 16
	sqMem := hm.Alloc(dev.Name+".asq", depth*nvme.AdminSQESize)
	cqMem := hm.Alloc(dev.Name+".acq", depth*nvme.CQESize)
	// Ring memory is parsed by the device continuously — pin it eager so
	// the marshalled SQEs/CQEs are always real bytes.
	dev.EnableAdmin(sqMem.MakeEager(), cqMem.MakeEager(), depth)
	return &AdminClient{e: e, dev: dev, sq: dev.admin.sq, cq: dev.admin.cq}
}

// roundTrip submits one admin command and waits for its completion.
func (c *AdminClient) roundTrip(p *sim.Proc, a nvme.AdminSQE) nvme.Status {
	c.cid++
	a.CID = c.cid
	if err := c.sq.Push(a); err != nil {
		panic("ssd: admin queue full: " + err.Error())
	}
	c.dev.RingAdmin()
	for {
		if cqe, ok := c.cq.Poll(); ok {
			if cqe.CID != a.CID {
				panic("ssd: admin completion out of order")
			}
			return cqe.Status
		}
		if !c.cq.OnPost.Fired() {
			p.Wait(c.cq.OnPost)
		}
		c.cq.OnPost.Reset()
	}
}

// Identify fetches the controller data structure into buf (≥4 KiB, must be
// a registered physical buffer, e.g. from hostmem.Alloc).
func (c *AdminClient) Identify(p *sim.Proc, bufAddr mem.Addr, buf []byte) (nvme.IdentifyData, error) {
	st := c.roundTrip(p, nvme.AdminSQE{Opcode: nvme.AdminIdentify, PRP1: uint64(bufAddr)})
	if st != nvme.StatusSuccess {
		return nvme.IdentifyData{}, fmt.Errorf("ssd: identify failed: %v", st)
	}
	return nvme.UnmarshalIdentify(buf), nil
}

// CreateIOQueuePair creates CQ then SQ for qid over the provided ring
// memories and returns the live pair.
func (c *AdminClient) CreateIOQueuePair(p *sim.Proc, qid uint16, sqAddr, cqAddr mem.Addr, depth uint16) (*nvme.QueuePair, error) {
	if st := c.roundTrip(p, nvme.AdminSQE{
		Opcode: nvme.AdminCreateIOCQ, QID: qid, QSize: depth, PRP1: uint64(cqAddr),
	}); st != nvme.StatusSuccess {
		return nil, fmt.Errorf("ssd: CreateIOCQ(%d) failed: %v", qid, st)
	}
	if st := c.roundTrip(p, nvme.AdminSQE{
		Opcode: nvme.AdminCreateIOSQ, QID: qid, CQID: qid, QSize: depth, PRP1: uint64(sqAddr),
	}); st != nvme.StatusSuccess {
		return nil, fmt.Errorf("ssd: CreateIOSQ(%d) failed: %v", qid, st)
	}
	qp, ok := c.dev.IOQueuePair(qid)
	if !ok {
		panic("ssd: queue pair missing after successful creation")
	}
	return qp, nil
}

// DeleteIOQueuePair tears down qid (SQ then CQ, per spec ordering).
func (c *AdminClient) DeleteIOQueuePair(p *sim.Proc, qid uint16) error {
	if st := c.roundTrip(p, nvme.AdminSQE{Opcode: nvme.AdminDeleteIOSQ, QID: qid}); st != nvme.StatusSuccess {
		return fmt.Errorf("ssd: DeleteIOSQ(%d) failed: %v", qid, st)
	}
	if st := c.roundTrip(p, nvme.AdminSQE{Opcode: nvme.AdminDeleteIOCQ, QID: qid}); st != nvme.StatusSuccess {
		return fmt.Errorf("ssd: DeleteIOCQ(%d) failed: %v", qid, st)
	}
	return nil
}
