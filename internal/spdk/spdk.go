// Package spdk models a user-space poll-mode NVMe driver in the style of
// the Storage Performance Development Kit: reactor threads that each own
// dedicated queue pairs (no locks in the I/O path), kernel-bypass
// submission, and polled completions. It is both the paper's SPDK baseline
// and the backend CAM's CPU control plane is built on.
//
// Data paths:
//   - Destination in host DRAM: the SSD DMAs straight into the user buffer
//     (SPDK is zero-copy to host memory); one DRAM crossing is charged.
//   - Destination in GPU HBM: SPDK cannot target GPU memory, so callers
//     stage through a host buffer and a cudaMemcpyAsync (gpu.CopyEngine);
//     the StagedGPUIO helper packages that flow and charges the second
//     DRAM crossing. This staging is precisely the paper's Issue 2.
package spdk

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/cpustat"
	"camsim/internal/fault"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
	"camsim/internal/ssd"
	"camsim/internal/trace"
)

// Config calibrates the driver. The per-request CPU costs every reactor
// shares are calib rows: SPDKSubmitCost, SPDKCompleteCost and
// SPDKPollIterCost in time, the instruction counts behind them (Fig 13) and
// SPDKIPC.
type Config struct {
	// QueueDepth bounds in-flight commands per queue pair.
	QueueDepth uint32

	// CmdTimeout is the per-command completion deadline measured from SQE
	// push. 0 (the default) disables the entire timeout/retry/fail-fast
	// machinery — no deadline bookkeeping, no extra events — so fault-free
	// runs replay byte-identically to builds without it. DefaultConfig
	// arms it automatically when a fault plan is installed.
	CmdTimeout sim.Time
	// MaxRetries bounds re-submissions of a retryable failed command
	// (media error or timeout); structural errors never retry.
	MaxRetries int
	// RetryBackoff delays the first retry; it doubles per attempt.
	RetryBackoff sim.Time
	// FailThreshold consecutive timeouts on one device (with no
	// intervening completion) declare the device dead: its in-flight and
	// future commands fail fast with StatusDevFailed. 0 never declares.
	FailThreshold int
}

// DefaultConfig calibrates to the paper's Figure 12: one reactor's submit
// and complete costs cap its request rate; two PCIe-limited SSDs per reactor
// stay under that cap, three sit at the knee and four get ≈75 % of their
// demand (DESIGN §4 has the arithmetic).
func DefaultConfig() Config {
	cfg := Config{QueueDepth: calib.SPDKQueueDepth()}
	// A process-wide fault plan arms recovery.
	if fault.Default().Enabled() {
		cfg.ArmRecovery()
	}
	return cfg
}

// ArmRecovery switches on the timeout, retry and fail-fast machinery with
// the one policy every faulted run uses: the deadline
// (calib.RecoveryDeadline) comfortably clears worst-case queueing plus a
// 16× latency spike, so only genuinely lost commands time out; retries back
// off exponentially; a run of consecutive timeouts declares a device dead.
func (c *Config) ArmRecovery() {
	c.CmdTimeout = calib.RecoveryDeadline()
	c.MaxRetries = calib.SPDKMaxRetries()
	c.RetryBackoff = calib.SPDKRetryBackoff()
	c.FailThreshold = calib.SPDKFailThreshold()
}

// RecoveryStats counts the driver's error-recovery actions.
type RecoveryStats struct {
	Timeouts       uint64 // command deadlines expired (command aborted)
	Retries        uint64 // re-submissions of retryable failures
	Recovered      uint64 // commands that succeeded after >= 1 retry
	FailedRequests uint64 // requests delivered with a non-success status
	FastFails      uint64 // requests failed without reaching a dead device
	DeviceFailures uint64 // devices declared dead
}

// Completion receives request completions in reactor context. Batch
// clients (CAM) implement it to fan a run of completions into one counter
// without allocating a closure or a signal per request. RequestDone must
// copy out any fields it needs: a pooled request is recycled as soon as it
// returns.
//
// A completion run delivers each request as it routes it, ahead of the
// instant the per-request cost puts it at: RequestDone may run before r.At,
// the completion's instant. A sink that counts a batch down (FanIn)
// finishes it at the latest instant among its requests — one event per
// batch, where the reactor spends none per request.
type Completion interface {
	RequestDone(r *Request)
}

// FanIn counts a batch's outstanding holds down to zero and runs the
// batch's finishing callback at the latest instant any hold was released
// at. Each reactor delivers ahead of the engine's clock on its own
// timeline, so with several reactors the last delivery need not carry the
// latest instant.
type FanIn struct {
	n    int
	last sim.Time
}

// Add takes n more holds.
func (f *FanIn) Add(n int) { f.n += n }

// Release drops one hold, released at instant at. Once none is left, done
// runs at the latest instant: at once if that is now, else by one event.
func (f *FanIn) Release(e *sim.Engine, at sim.Time, done sim.Callback) {
	f.last = max(f.last, at)
	if f.n--; f.n != 0 {
		return
	}
	at, f.last = f.last, 0
	if now := e.Now(); at > now {
		e.ScheduleCallback(at-now, done)
		return
	}
	done.Run()
}

// Request is one asynchronous NVMe command through the driver. A request
// without a Sink belongs to its Done waiter: the driver keeps no reference
// to it once Done has fired, so the waiter may zero it and submit it again
// (a closed loop's window reuses depth records this way;
// TestRequestReusableAfterDone).
type Request struct {
	Op   nvme.Opcode
	Dev  int    // device index within the driver
	SLBA uint64 // device LBA
	NLB  uint32
	// Addr is the data buffer's physical address (host DRAM for the
	// classic SPDK flow; CAM passes pinned GPU HBM here).
	Addr mem.Addr

	Status nvme.Status
	// Done is the completion signal for callers that block on individual
	// requests. Submit arms it only when no Sink is set.
	Done sim.Signal
	// OnDone, if set, runs in reactor context right before Done fires;
	// batch-oriented clients use it to avoid one waiter process per
	// request.
	OnDone func()
	// Sink, if set, replaces Done/OnDone: the reactor calls RequestDone
	// and then recycles the request if it came from the driver pool.
	Sink Completion
	// Tag carries the submitter's per-request context (a batch handle)
	// through to Sink.RequestDone.
	Tag any
	// At is the instant the request completed on its reactor's timeline,
	// set before Sink.RequestDone runs (see Completion). Done and OnDone
	// fire at At.
	At sim.Time

	pooled bool
	// dram marks a buffer in host DRAM (set by Submit): the data crosses
	// DRAM, a link every reactor shares, at the command's instant.
	dram bool
	// attempts counts submissions (1 = first try).
	attempts int
}

// Bytes reports the transfer size.
func (r *Request) Bytes() int64 { return int64(r.NLB) * nvme.LBASize }

// Reactor is one polling CPU thread owning queue pairs for its devices.
// Per-device state is one record indexed by device number (zero for devices
// this reactor does not own): command dispatch touches no maps.
type Reactor struct {
	id    int
	d     *Driver
	devs  []int // device indices owned by this reactor
	dq    []devQueue
	queue *sim.Store[*Request]

	// pending holds requests deferred because their queue pair was full,
	// oldest first.
	pending *sim.Store[*Request]
	// wake is the reactor's persistent idle-wake signal: Submit and the
	// per-CQ relays fire it, the idle sweep waits on it and resets it once
	// consumed. Reusing one signal (instead of allocating a fresh one per
	// idle cycle) keeps the idle path allocation-free.
	wake *sim.Signal
	// relays are the persistent per-device CQ-post relays, indexed by
	// device number (nil for devices this reactor does not own, allocated
	// lazily on first arm). A relay belongs to the reactor that armed it,
	// so unlike dq it does not move with its device.
	relays []*cqRelay

	// retries holds failed requests waiting out their backoff; drained by
	// the run loop once due. Only populated when recovery is armed.
	retries []retryEntry

	Stat cpustat.Counters
}

// devQueue is what a reactor keeps per owned device: the dedicated queue
// pair and the state of the commands in flight on it.
type devQueue struct {
	qp *nvme.QueuePair // nil when this reactor does not own the device
	// tags holds each in-flight request by CID, with its deadline when
	// recovery is armed. busy counts the CIDs taken or about to be (a
	// submission holds its place while calib.SPDKSubmitCost elapses); it
	// stays below the ring depth, because a ring keeps one slot free.
	tags nvme.Tags[*Request]
	busy int
	// consecTO counts consecutive timeouts (reset by any completion);
	// crossing Config.FailThreshold declares the device dead.
	consecTO int
}

// retryEntry is one backoff-delayed re-submission.
type retryEntry struct {
	req *Request
	at  sim.Time
}

// Driver is an SPDK instance over a set of SSDs.
type Driver struct {
	e        *sim.Engine
	cfg      Config
	hm       *hostmem.Memory
	space    *mem.Space
	devs     []*ssd.Device
	reactors []*Reactor
	// devOwner maps device index → owning reactor index; CAM's dynamic
	// core adjustment rewrites it between batches.
	devOwner []int
	// reqFree recycles Sink-completed requests issued via GetRequest.
	reqFree sim.FreeList[Request]
	// stagedSeq numbers this driver's staging buffers so their names stay
	// deterministic (a %p-based name would differ across ASLR'd runs).
	stagedSeq int
	started   bool

	// failed marks devices declared dead after repeated timeouts.
	failed []bool
	// rec aggregates recovery actions across reactors.
	rec RecoveryStats
	// tr records timeout/retry/device-fail events; nil-safe.
	tr *trace.Tracer
}

// New builds a driver with nThreads reactor threads; devices are assigned
// to reactors round-robin, each device getting a dedicated queue pair
// (rings in host DRAM) so the I/O path takes no locks.
func New(e *sim.Engine, cfg Config, hm *hostmem.Memory, space *mem.Space, devs []*ssd.Device, nThreads int) *Driver {
	if nThreads <= 0 {
		panic("spdk: need at least one reactor thread")
	}
	if len(devs) == 0 {
		panic("spdk: no devices")
	}
	if nThreads > len(devs) {
		nThreads = len(devs)
	}
	d := &Driver{e: e, cfg: cfg, hm: hm, space: space, devs: devs,
		failed: make([]bool, len(devs))}
	for i := 0; i < nThreads; i++ {
		r := &Reactor{
			id:      i,
			d:       d,
			dq:      make([]devQueue, len(devs)),
			queue:   sim.NewStore[*Request](e, fmt.Sprintf("spdk.r%d", i)),
			pending: sim.NewStore[*Request](e, fmt.Sprintf("spdk.pending%d", i)),
			relays:  make([]*cqRelay, len(devs)),
		}
		r.wake = e.NewSignal(fmt.Sprintf("spdk.wake%d", i))
		d.reactors = append(d.reactors, r)
	}
	for di, dev := range devs {
		r := d.reactors[di%nThreads]
		d.devOwner = append(d.devOwner, r.id)
		r.devs = append(r.devs, di)
		sqMem := hm.Alloc(fmt.Sprintf("spdk.sq.%d.%d", r.id, di), int64(cfg.QueueDepth)*nvme.SQESize)
		cqMem := hm.Alloc(fmt.Sprintf("spdk.cq.%d.%d", r.id, di), int64(cfg.QueueDepth)*nvme.CQESize)
		// Ring memory is real bytes (nvme renders the wire image into it).
		r.dq[di] = devQueue{
			qp:   dev.CreateQueuePair(fmt.Sprintf("spdk-r%d", r.id), sqMem.MakeEager(), cqMem.MakeEager(), cfg.QueueDepth),
			tags: nvme.NewTags[*Request](cfg.QueueDepth),
		}
	}
	return d
}

// GetRequest takes a zeroed request from the driver's free list (allocating
// on pool miss). Pooled requests are recycled automatically after their
// Sink runs; they must not be retained past RequestDone.
func (d *Driver) GetRequest() *Request {
	r := d.reqFree.Get()
	r.pooled = true
	return r
}

// putRequest clears and recycles a pooled request.
func (d *Driver) putRequest(r *Request) {
	*r = Request{}
	d.reqFree.Put(r)
}

// SetTracer attaches a tracer for recovery events (nil disables).
func (d *Driver) SetTracer(tr *trace.Tracer) { d.tr = tr }

// Recovery returns a snapshot of the driver's error-recovery counters.
func (d *Driver) Recovery() RecoveryStats { return d.rec }

// SetActiveReactors redistributes all devices round-robin over the first n
// reactors. It is only legal at a quiescent point: any in-flight command on
// a moved device panics, because two reactors polling one queue pair would
// corrupt it (the real driver has the same single-consumer rule).
func (d *Driver) SetActiveReactors(n int) {
	if n <= 0 || n > len(d.reactors) {
		panic("spdk: SetActiveReactors out of range")
	}
	for di := range d.devs {
		newOwner := di % n
		oldOwner := d.devOwner[di]
		if newOwner == oldOwner {
			continue
		}
		from, to := d.reactors[oldOwner], d.reactors[newOwner]
		if from.dq[di].busy != 0 || from.pending.Len() != 0 || from.queue.Len() != 0 {
			panic("spdk: SetActiveReactors with in-flight or queued commands on moved device")
		}
		// Move ownership of the device's queue pair and bookkeeping; each
		// reactor keeps its own timeout streak for the device.
		moved := from.dq[di]
		moved.consecTO = to.dq[di].consecTO
		from.dq[di] = devQueue{consecTO: from.dq[di].consecTO}
		to.dq[di] = moved
		for i, v := range from.devs {
			if v == di {
				from.devs = append(from.devs[:i], from.devs[i+1:]...)
				break
			}
		}
		to.devs = append(to.devs, di)
		d.devOwner[di] = newOwner
	}
}

// Start launches the reactor state machines. Devices must be Started
// separately.
func (d *Driver) Start() {
	if d.started {
		panic("spdk: Start called twice")
	}
	d.started = true
	for _, r := range d.reactors {
		st := &reactorStep{r: r, armed: d.cfg.CmdTimeout > 0,
			submitCycles:   calib.SPDKSubmitInstr() / calib.SPDKIPC(),
			completeCycles: calib.SPDKCompleteInstr() / calib.SPDKIPC()}
		st.wait.Init(d.e, st)
		d.e.ScheduleCallback(0, st)
	}
}

// Stats merges all reactor counters.
func (d *Driver) Stats() cpustat.Counters {
	var c cpustat.Counters
	for _, r := range d.reactors {
		c.Add(r.Stat)
	}
	return c
}

// reactorFor reports which reactor owns device di.
func (d *Driver) reactorFor(di int) *Reactor { return d.reactors[d.devOwner[di]] }

// Submit hands a request to its device's reactor. The caller pays nothing
// (GPU-initiated submission in CAM writes only a memory flag); all CPU
// costs land on the reactor. r.Done fires at completion.
func (d *Driver) Submit(r *Request) {
	if r.NLB == 0 {
		panic("spdk: zero-length request")
	}
	if int(r.NLB)*nvme.LBASize > maxXfer {
		panic(fmt.Sprintf("spdk: request %d bytes exceeds MDTS %d", int(r.NLB)*nvme.LBASize, maxXfer))
	}
	if r.Dev < 0 || r.Dev >= len(d.devs) {
		panic("spdk: bad device index")
	}
	// Sink-driven requests fan completions into the submitter's counter;
	// everyone else gets a per-request signal to block on.
	if r.Sink == nil {
		r.Done.Init(d.e, "spdkreq")
	}
	_, _, kind, err := d.space.ResolvePayload(r.Addr, 1)
	r.dram = err == nil && kind == mem.HostDRAM
	rc := d.reactorFor(r.Dev)
	rc.queue.Put(r)
	// Wake the reactor if it is idle-sleeping (idempotent when already
	// awake; the sweep consumes and resets the signal).
	rc.wake.Fire()
}

// maxXfer is the maximum data transfer size per command (MDTS, 128 KiB on
// the modeled device).
const maxXfer = 128 << 10

// MaxTransfer reports the per-command transfer limit.
func MaxTransfer() int64 { return maxXfer }

// reactorStep phases. Phases marked (resume) are re-entry points after a
// self-scheduled callback or a wake; the rest are internal sweep positions.
const (
	rpIterStart    uint8 = iota // top of a sweep: collect due retries
	rpSubmitRun                 // submission run: due retries, then the app queue
	rpPollCQ                    // completion runs, one queue pair at a time
	rpPushHeld                  // (resume) a held SQE's instant came: push it
	rpCompleteHeld              // (resume) a held CQE's instant came: route it
	rpExpire                    // scanning in-flight deadlines
	rpExpireCont                // post-expiry dead-device check
	rpIdleCheck                 // end of sweep: idle accounting decision
	rpIdleSlept                 // (resume) idle poll-iteration cost elapsed
	rpSigWake                   // (resume) woken by the wake signal or a due deadline
)

// reactorStep is the reactor polling loop as an engine-callback state
// machine. One sweep is retry drain, queue drain, CQ poll, deadline expiry
// and idle accounting, in that order.
//
// The reactor keeps its own clock, t, ahead of the engine's: a submission
// run takes every queued request at once and pushes request i with the
// arrival instant t0 + (i+1)·SPDKSubmitCost (ssd.Device.RingAt); a
// completion run routes every CQE posted on one queue pair at once, request
// j completing at t0 + (j+1)·SPDKCompleteCost plus the submit cost of each
// deferred request it admitted. Each run costs one event, at its end, where
// the sweep goes on exactly where a per-command loop would. Every command
// and every completion keeps the instant the per-command loop gives it.
//
// Work that books something shared beyond this reactor cannot be done
// ahead of the clock — another host or reactor booking it in between, for
// an earlier instant, would be served after it — so it waits for its
// instant, one event each, where the loop spent one too: an SQE for a
// device with more than one queue pair (several drivers on one SSD, as in
// abl-multigpu), and an SQE or CQE whose data crosses host DRAM (the
// hostmem link is FIFO and every reactor books it). And an idle sweep
// parks on the wake at once instead of spending an event on its poll
// iteration, unless a wake already stands fired or a deadline falls inside
// the iteration; a wake that comes before the iteration would have ended
// resumes the sweep at that end.
type reactorStep struct {
	r     *Reactor
	phase uint8 // current sweep position / resume point
	armed bool  // cfg.CmdTimeout > 0, constant
	// submitCycles/completeCycles are the cycles a submission and a
	// completion take at calib.SPDKIPC, divided once instead of per command.
	submitCycles, completeCycles float64
	// progressed records whether the current sweep did any work; an idle
	// sweep charges one poll iteration and parks.
	progressed bool
	// t is the reactor's clock: when the work done so far ends. It never
	// trails the engine's.
	t sim.Time

	// due is the retry batch collected at rpIterStart (reused backing).
	due    []*Request
	dueIdx int

	// devIdx is the CQ-poll position within r.devs.
	devIdx int

	// held is a submission waiting for the engine's clock to reach its
	// instant; heldRet is the phase to re-enter once it is pushed.
	held    *Request
	heldRet uint8
	// heldCQE, on heldDQ, is a completion waiting likewise.
	heldCQE nvme.CQE
	heldDQ  *devQueue

	// expDev/expCid are the deadline-scan position; expNow is the time the
	// scan started, which deadlines are compared against even after
	// mid-scan submits have moved the clock.
	expDev, expCid int
	expNow         sim.Time

	// wait is the idle wait on the wake signal, bounded by NextDeadline;
	// waitStart is when the idle poll iteration before it ends, from which
	// the wait's poll cycles are charged.
	wait      sim.DeadlineWait
	waitStart sim.Time
}

// Run advances the sweep until it parks: at the end of a run, on an idle
// iteration, or on the idle wake signal.
func (s *reactorStep) Run() {
	r := s.r
	e := r.d.e
	cfg := &r.d.cfg
	if now := e.Now(); s.t < now {
		s.t = now
	}
	for {
		switch s.phase {
		case rpIterStart:
			s.progressed = false
			if s.armed && len(r.retries) > 0 {
				// Collect due retries before any submit call, because
				// submit can grow r.retries again (fail-fast → deliver →
				// a Sink that submits).
				kept := r.retries[:0]
				for _, re := range r.retries {
					if re.at <= s.t {
						s.due = append(s.due, re.req)
					} else {
						kept = append(kept, re)
					}
				}
				r.retries = kept
				if len(s.due) > 0 {
					s.progressed = true
				}
			}
			s.dueIdx = 0
			s.phase = rpSubmitRun

		case rpSubmitRun:
			// Re-submit retries whose backoff has elapsed, then drain the
			// app submissions, all in one run.
			for s.dueIdx < len(s.due) {
				req := s.due[s.dueIdx]
				s.dueIdx++
				if s.submit(req) {
					return
				}
			}
			if len(s.due) > 0 {
				clear(s.due)
				s.due = s.due[:0]
				s.dueIdx = 0
			}
			for {
				req, ok := r.queue.TryGet()
				if !ok {
					break
				}
				s.progressed = true
				if s.submit(req) {
					return
				}
			}
			// The run ends: requests queued meanwhile are taken from there.
			if s.endRun() {
				return
			}
			s.devIdx = 0
			s.phase = rpPollCQ

		case rpPollCQ:
			// Poll completions on every owned queue pair. A device can be
			// reassigned (SetActiveReactors) while the sweep waits for a
			// run's end, so tolerate entries that moved away.
			if s.devIdx >= len(r.devs) {
				if s.armed {
					// Expire deadlines after polling, so a completion that
					// raced its own timeout wins deterministically.
					s.expDev, s.expCid = 0, 0
					s.expNow = s.t
					s.phase = rpExpire
				} else {
					s.phase = rpIdleCheck
				}
				continue
			}
			di := r.devs[s.devIdx]
			dq := &r.dq[di]
			if dq.qp == nil {
				s.devIdx++
				continue
			}
			for {
				cqe, ok := dq.qp.CQ.Poll()
				if !ok {
					break
				}
				s.progressed = true
				s.t += calib.SPDKCompleteCost()
				if now := e.Now(); s.t > now && dq.tags.Owner(cqe.CID).landsInDRAM() {
					s.heldCQE, s.heldDQ = cqe, dq
					s.phase = rpCompleteHeld
					e.ScheduleCallback(s.t-now, s)
					return
				}
				s.complete(dq, cqe)
				// Admit a deferred request if any.
				if next, ok := r.pending.TryGet(); ok && s.submit(next) {
					return
				}
			}
			// The run ends; then the same pair is polled again, for the
			// CQEs posted meanwhile.
			if s.endRun() {
				return
			}
			s.devIdx++

		case rpPushHeld:
			s.push(s.held)
			s.held = nil
			s.phase = s.heldRet

		case rpCompleteHeld:
			s.complete(s.heldDQ, s.heldCQE)
			s.heldDQ = nil
			s.phase = rpPollCQ
			if next, ok := r.pending.TryGet(); ok && s.submit(next) {
				return
			}

		case rpExpire:
			// Abort commands whose deadline passed, synthesizing
			// StatusCmdTimeout completions and feeding them into retry or
			// delivery.
			if s.expDev >= len(r.devs) {
				if s.endRun() {
					return
				}
				s.phase = rpIdleCheck
				continue
			}
			di := r.devs[s.expDev]
			dq := &r.dq[di]
			cid, req, due := dq.tags.NextDue(s.expCid, s.expNow)
			if !due {
				s.expDev++
				s.expCid = 0
				continue
			}
			s.expCid = int(cid) + 1
			if r.d.devs[di].Abort(dq.qp, cid) == ssd.AbortNotFound {
				// The CQE is already posted and waiting in the CQ: the
				// completion beat the timeout; reap it on the next sweep.
				continue
			}
			s.progressed = true
			dq.tags.Free(cid)
			dq.busy--
			r.d.rec.Timeouts++
			r.d.tr.Emit(trace.IOTimeout, r.d.devs[di].Name,
				fmt.Sprintf("%s attempt %d", req.Op, req.attempts), int64(req.SLBA))
			req.Status = nvme.StatusCmdTimeout
			dq.consecTO++
			if th := cfg.FailThreshold; th > 0 && dq.consecTO >= th && !r.d.failed[di] {
				r.markDeviceFailed(di, s.t)
			}
			r.finishOrRetry(req, s.t)
			s.phase = rpExpireCont
			if next, ok := r.pending.TryGet(); ok && s.submit(next) {
				return
			}

		case rpExpireCont:
			// A device declared dead mid-scan is abandoned:
			// markDeviceFailed already flushed it.
			if r.d.failed[r.devs[s.expDev]] {
				s.expDev++
				s.expCid = 0
			}
			s.phase = rpExpire

		case rpIdleCheck:
			if s.progressed {
				s.phase = rpIterStart
				continue
			}
			// Idle: account one poll sweep, then sleep until either new
			// submissions or a completion arrives.
			iter := calib.SPDKPollIterCost() * sim.Time(len(r.devs))
			r.Stat.Charge(calib.SPDKPollIterInstr()*float64(len(r.devs)), calib.SPDKIPC())
			s.waitStart = s.t + iter
			if next := s.NextDeadline(); r.wakePending() || next > 0 && next <= s.waitStart {
				// The iteration's end decides, as it comes.
				s.phase = rpIdleSlept
				e.ScheduleCallback(iter, s)
				return
			}
			// Nothing can be pending at the iteration's end but what wakes
			// the reactor first: park now (rpSigWake resumes a wake that
			// comes early at the iteration's end).
			s.park(r.wakeSignal())
			return

		case rpIdleSlept:
			if r.anythingPending() {
				s.phase = rpIterStart
				continue
			}
			// Wait until a submission or completion signal fires — or,
			// when recovery is armed, until the earliest pending command
			// deadline or retry backoff, whichever comes first.
			sig := r.wakeSignal()
			if next := s.NextDeadline(); next > 0 && next <= s.t {
				// A deadline already due falls through without sleeping;
				// the next sweep expires it.
				s.phase = rpIterStart
				continue
			}
			if sig.Fired() {
				// An already-fired wake returns immediately: no event, no
				// waited time to charge. Consume it — the work behind the
				// fire is visible in the queues the resweep drains.
				sig.Reset()
				s.phase = rpIterStart
				continue
			}
			s.park(sig)
			return

		case rpSigWake:
			if s.t < s.waitStart {
				// Woken during the idle iteration: the submission or post
				// behind the wake is taken when the iteration ends, and
				// the wake stays fired, as it would for a sweep that had
				// not parked yet.
				s.phase = rpIterStart
				e.ScheduleCallback(s.waitStart-s.t, s)
				return
			}
			// Woken by a submission or completion signal, or by a due
			// deadline. Re-arm the persistent wake: anything fired after
			// this reset is still visible in the queues this resweep
			// drains.
			r.wake.Reset()
			// Charge the poll cycles a real poll-mode reactor would have
			// burned through the wait.
			if waited := s.t - s.waitStart; waited > 0 {
				iters := float64(waited) / float64(calib.SPDKPollIterCost()*sim.Time(len(r.devs))+1)
				r.Stat.Charge(iters*calib.SPDKPollIterInstr()*float64(len(r.devs)), calib.SPDKIPC())
			}
			s.phase = rpIterStart
		}
	}
}

// endRun ends a run whose work reaches past the engine's clock: the sweep
// parks until the run's end, where it re-enters the current phase. Reports
// whether it parked.
func (s *reactorStep) endRun() bool {
	now := s.r.d.e.Now()
	if s.t == now {
		return false
	}
	s.r.d.e.ScheduleCallback(s.t-now, s)
	return true
}

// park waits on sig, the unfired wake signal, bounded by the next deadline.
func (s *reactorStep) park(sig *sim.Signal) {
	s.phase = rpSigWake
	s.wait.Park(sig, s.NextDeadline())
}

// submit adds one request to the current run. Fail-fast and defer paths
// complete without cost; otherwise the submit cost advances the reactor's
// clock and the SQE is pushed with that instant. An SQE for a device other
// hosts also submit to waits for the engine's clock instead (see
// ssd.Device.RingAt): submit then parks the sweep and reports true.
func (s *reactorStep) submit(req *Request) bool {
	r := s.r
	di := req.Dev
	// A dead device answers nothing: fail fast instead of burning a
	// timeout per command.
	if r.d.failed[di] {
		req.Status = nvme.StatusDevFailed
		r.d.rec.FastFails++
		r.deliver(req, s.t)
		return false
	}
	// Respect the in-flight bound without blocking the reactor: requeue
	// if the pair is full.
	dq := &r.dq[di]
	if dq.busy == dq.tags.Depth()-1 {
		r.pending.Put(req)
		return false
	}
	dq.busy++
	s.t += calib.SPDKSubmitCost()
	if r.d.devs[di].QueuePairs() > 1 || req.Op == nvme.OpWrite && req.dram {
		if now := r.d.e.Now(); s.t > now {
			s.held, s.heldRet = req, s.phase
			s.phase = rpPushHeld
			r.d.e.ScheduleCallback(s.t-now, s)
			return true
		}
	}
	s.push(req)
	return false
}

// push writes req's SQE and rings the doorbell at the reactor's clock.
func (s *reactorStep) push(req *Request) {
	r := s.r
	r.Stat.Instructions += calib.SPDKSubmitInstr()
	r.Stat.ChargeCycles(s.submitCycles)
	di := req.Dev
	dq := &r.dq[di]
	var deadline sim.Time
	if s.armed {
		deadline = s.t + r.d.cfg.CmdTimeout
	}
	cid := dq.tags.Alloc(req, deadline)
	req.attempts++
	if err := dq.qp.SQ.Push(nvme.SQE{
		Opcode: req.Op, CID: cid, NSID: 1,
		PRP1: uint64(req.Addr), SLBA: req.SLBA, NLB: req.NLB,
	}); err != nil {
		panic("spdk: SQ overflow despite slot limiter: " + err.Error())
	}
	// Writes whose source is host DRAM cost a DRAM read crossing when the
	// device fetches the data; submit held them until their instant.
	if req.Op == nvme.OpWrite && req.dram {
		r.d.hm.ReserveTraffic(req.Bytes())
	}
	r.d.devs[di].RingAt(dq.qp, cid, s.t)
}

// complete routes one reaped CQE at the reactor's clock.
func (s *reactorStep) complete(dq *devQueue, cqe nvme.CQE) {
	r := s.r
	r.Stat.Instructions += calib.SPDKCompleteInstr()
	r.Stat.ChargeCycles(s.completeCycles)
	req := dq.tags.Free(cqe.CID)
	// Reads that landed in host DRAM cost one DRAM write crossing; the
	// poll held them until their instant.
	if req.landsInDRAM() {
		r.d.hm.ReserveTraffic(req.Bytes())
	}
	req.Status = cqe.Status
	r.Stat.Done(1)
	dq.busy--
	dq.consecTO = 0
	if req.Status != nvme.StatusSuccess {
		r.finishOrRetry(req, s.t)
	} else {
		r.deliver(req, s.t)
	}
}

// finishOrRetry routes a command that failed at instant at: retryable
// statuses re-submit with exponential backoff from at until MaxRetries;
// everything else is delivered.
func (r *Reactor) finishOrRetry(req *Request, at sim.Time) {
	cfg := &r.d.cfg
	if cfg.CmdTimeout > 0 && req.Status.Retryable() &&
		req.attempts <= cfg.MaxRetries && !r.d.failed[req.Dev] {
		backoff := cfg.RetryBackoff << (req.attempts - 1)
		r.d.rec.Retries++
		r.d.tr.Emit(trace.IORetry, r.d.devs[req.Dev].Name,
			fmt.Sprintf("%s attempt %d in %s", req.Op, req.attempts+1, backoff), int64(req.SLBA))
		r.retries = append(r.retries, retryEntry{req: req, at: at + backoff})
		return
	}
	r.deliver(req, at)
}

// deliver hands a request finished at instant at to its completion
// consumer: the Sink at once (it schedules what it does at req.At), else
// OnDone and the Done signal at at. Only Sink-consumed pooled requests
// recycle here — a Done waiter reads r.Status after resuming, so recycling
// under it would zero the status; such a request is its waiter's.
func (r *Reactor) deliver(req *Request, at sim.Time) {
	if req.Status == nvme.StatusSuccess {
		if req.attempts > 1 {
			r.d.rec.Recovered++
		}
	} else {
		r.d.rec.FailedRequests++
	}
	req.At = at
	if req.Sink != nil {
		req.Sink.RequestDone(req)
		if req.pooled {
			r.d.putRequest(req)
		}
		return
	}
	if now := r.d.e.Now(); at > now {
		r.d.e.ScheduleCallback(at-now, (*doneAt)(req))
		return
	}
	(*doneAt)(req).Run()
}

// doneAt is a request's completion event: OnDone, then the Done signal.
type doneAt Request

func (d *doneAt) Run() {
	req := (*Request)(d)
	if req.OnDone != nil {
		req.OnDone()
	}
	req.Done.Fire()
}

// markDeviceFailed declares device di dead: every in-flight command is
// aborted and failed, queued work for it fails fast, and r.submit rejects
// all future commands with StatusDevFailed, as of instant at. The engine
// degrades instead of wedging — RAID0 callers observe per-request errors and
// accurate stats.
func (r *Reactor) markDeviceFailed(di int, at sim.Time) {
	r.d.failed[di] = true
	r.d.rec.DeviceFailures++
	r.d.tr.Emit(trace.DeviceFail, r.d.devs[di].Name,
		fmt.Sprintf("dead after %d consecutive timeouts", r.dq[di].consecTO), int64(di))
	dq := &r.dq[di]
	for cid := range dq.tags.Depth() {
		req := dq.tags.Owner(uint16(cid))
		if req == nil {
			continue
		}
		if r.d.devs[di].Abort(dq.qp, uint16(cid)) == ssd.AbortNotFound {
			continue // CQE already posted; let the poll sweep reap it
		}
		dq.tags.Free(uint16(cid))
		dq.busy--
		req.Status = nvme.StatusDevFailed
		r.d.rec.FastFails++
		r.deliver(req, at)
	}
	// Backoff queue and deferred submissions for this device fail fast.
	kept := r.retries[:0]
	for _, re := range r.retries {
		if re.req.Dev == di {
			re.req.Status = nvme.StatusDevFailed
			r.d.rec.FastFails++
			r.deliver(re.req, at)
			continue
		}
		kept = append(kept, re)
	}
	r.retries = kept
	for n := r.pending.Len(); n > 0; n-- {
		req, _ := r.pending.TryGet()
		if req.Dev == di {
			req.Status = nvme.StatusDevFailed
			r.d.rec.FastFails++
			r.deliver(req, at)
			continue
		}
		r.pending.Put(req) // the survivors come round in their old order
	}
}

// wakePending reports whether the wake signal, or a CQ post no relay
// forwarded yet, stands fired: wakeSignal would return it fired.
func (r *Reactor) wakePending() bool {
	if r.wake.Fired() {
		return true
	}
	for _, di := range r.devs {
		if qp := r.dq[di].qp; qp != nil && qp.CQ.OnPost.Fired() {
			return true
		}
	}
	return false
}

// anythingPending reports whether there is immediate work.
func (r *Reactor) anythingPending() bool {
	if r.queue.Len() > 0 {
		return true
	}
	for _, di := range r.devs {
		if qp := r.dq[di].qp; qp != nil && qp.CQ.Len() > 0 {
			return true
		}
	}
	return false
}

// NextDeadline reports the earliest armed command deadline or retry-backoff
// instant the reactor owes attention to (0 when none); it bounds the idle
// wait (sim.Deadliner).
func (s *reactorStep) NextDeadline() sim.Time {
	r := s.r
	if !s.armed {
		return 0
	}
	var t sim.Time
	for _, di := range r.devs {
		if d := r.dq[di].tags.Earliest(); d > 0 && (t == 0 || d < t) {
			t = d
		}
	}
	for _, re := range r.retries {
		if t == 0 || re.at < t {
			t = re.at
		}
	}
	return t
}

// wakeSignal arms the reactor's persistent wake signal to fire on the next
// submission or completion: Submit fires it directly, and one persistent
// relay per owned CQ forwards OnPost. Arming costs no allocations — the
// signal and the relays live as long as the reactor, and a relay stays
// armed across idle cycles until its CQ actually posts.
func (r *Reactor) wakeSignal() *sim.Signal {
	sig := r.wake
	if sig.Fired() {
		// A submission or post landed while the sweep was busy; the
		// caller sees Fired and resweeps immediately.
		return sig
	}
	for _, di := range r.devs {
		qp := r.dq[di].qp
		if qp == nil {
			continue
		}
		cq := qp.CQ
		if cq.OnPost.Fired() {
			cq.OnPost.Reset()
			sig.Fire()
			return sig
		}
		rel := r.relays[di]
		if rel == nil {
			rel = &cqRelay{r: r, cq: cq}
			r.relays[di] = rel
		}
		if !rel.armed {
			rel.armed = true
			cq.OnPost.WaitInline(rel)
		}
	}
	return sig
}

// cqRelay forwards CQ posts to its reactor's wake signal. One relay per
// (reactor, device) persists for the reactor's lifetime: arming it is one
// slice append of an existing pointer, and an already-armed relay costs
// nothing.
type cqRelay struct {
	r     *Reactor
	cq    *nvme.CQ
	armed bool
}

// Run relays the post (engine-callback context). A post that lands while
// the reactor is busy leaves the wake signal fired; the next idle check
// consumes it and resweeps.
func (c *cqRelay) Run() {
	c.armed = false
	c.cq.OnPost.Reset()
	c.r.wake.Fire()
}

// landsInDRAM reports whether the request is a read into host DRAM.
func (r *Request) landsInDRAM() bool { return r.Op == nvme.OpRead && r.dram }
