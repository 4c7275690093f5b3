package sim

import (
	"fmt"
	"sort"
	"sync"
)

// This file implements the sharded DES coordinator: a Cluster partitions a
// simulation into Shards (one Engine each — its own event queue, RNG
// stream, and worker goroutine) synchronized by conservative lookahead
// exchange, the classic Chandy–Misra–Bryant null-message discipline
// specialized to a barrier form:
//
//	window:   all shards run [T, T+L) in parallel, where T is the global
//	          minimum next-event time and L the minimum cross-shard
//	          lookahead;
//	barrier:  boundary events produced during the window are gathered,
//	          sorted by (time, source shard, source sequence) — a strict
//	          total order — and injected into their destination shards;
//	repeat    until every shard is quiescent.
//
// Determinism argument (DESIGN.md §11): each shard's Engine is a
// deterministic function of its injected events; a CrossLink only accepts
// sends with delay >= its lookahead, so every boundary event lands at or
// after the window end and never races events the destination already
// processed; and the barrier sort order is independent of worker timing.
// Therefore the cluster's trace is identical at any worker count, including
// the degenerate serial schedule — which is exactly how `-shards 1` degrades
// to the plain single-engine behavior.
//
// The lookahead is physical, not invented: cross-shard topology edges map to
// fabric hops, and Link.XferTime of the minimum message size bounds how soon
// one side can observe the other. A zero lookahead would force zero-width
// windows (no parallelism, and no progress guarantee), so Connect rejects it
// outright.

// Shard is one partition of a clustered simulation: an Engine plus the
// bookkeeping the coordinator needs. Device layers declare shard affinity by
// constructing against the shard's Engine; scheduling onto a shard's engine
// from outside its worker while a window is running is a misassignment and
// panics (see Engine.checkAffinity).
type Shard struct {
	id      int
	name    string
	eng     *Engine
	rng     *RNG
	cluster *Cluster

	// executing is true while this shard's own worker is inside RunUntil.
	// It is only written by the shard's worker goroutine (or the coordinator
	// in serial mode), and read by checkAffinity on the same goroutine, so
	// correct runs never race on it.
	executing bool

	// outbox collects boundary events produced during the current window,
	// appended only by this shard's worker.
	outbox []boundaryEvent
	outSeq uint64

	// Persistent worker rendezvous (parallel mode only).
	cmd  chan Time
	done chan struct{}
}

// ID reports the shard's index in cluster order.
func (s *Shard) ID() int { return s.id }

// Name reports the shard's name.
func (s *Shard) Name() string { return s.name }

// Engine returns the shard's private engine. All state owned by the shard
// must be built against it.
func (s *Shard) Engine() *Engine { return s.eng }

// RNG returns the shard's private random stream, split deterministically
// from the cluster seed by shard index, so adding a shard never perturbs the
// draws of existing ones.
func (s *Shard) RNG() *RNG { return s.rng }

// boundaryEvent is a cross-shard event in flight between windows.
type boundaryEvent struct {
	at  Time
	src int
	seq uint64
	dst *Shard
	fn  func()
}

// CrossLink is a unidirectional cross-shard edge with a fixed positive
// lookahead: the minimum virtual latency of any message that crosses it.
// The destination shard may safely simulate that far ahead of the source.
type CrossLink struct {
	name      string
	src, dst  *Shard
	lookahead Time
}

// Lookahead reports the link's conservative horizon.
func (l *CrossLink) Lookahead() Time { return l.lookahead }

// Send schedules fn on the destination shard at the source shard's
// now+delay. It must be called from the source shard (its worker, during a
// window, or the coordinator between windows), and delay must be at least
// the link's lookahead — that bound is what lets the destination run ahead,
// so undercutting it would corrupt already-simulated time and panics.
func (l *CrossLink) Send(delay Time, fn func()) {
	if delay < l.lookahead {
		panic(fmt.Sprintf("sim: send on cross-shard link %q with delay %v below its lookahead %v",
			l.name, delay, l.lookahead))
	}
	s := l.src
	s.outSeq++
	s.outbox = append(s.outbox, boundaryEvent{
		at: s.eng.now + delay, src: s.id, seq: s.outSeq, dst: l.dst, fn: fn,
	})
}

// Cluster coordinates a set of shards through windowed conservative
// execution. Build it with NewCluster, add shards and links, then Run.
// A cluster of one shard (or workers=1) executes the exact same event trace
// serially.
type Cluster struct {
	shards  []*Shard
	links   []*CrossLink
	minLA   Time // minimum lookahead over all links; MaxTime if none
	workers int
	seed    uint64
	root    *RNG

	// windowActive is true while shard workers may be running. Written by
	// the coordinator goroutine only, with channel sends/receives ordering
	// it against worker reads.
	windowActive bool
	started      bool // persistent workers launched
	shutdown     bool

	// exchange scratch, reused across barriers.
	xchg []boundaryEvent
}

// NewCluster creates an empty cluster. seed roots the per-shard RNG streams;
// workers is the maximum number of shards simulated concurrently per window
// (1 = fully serial, deterministic either way).
func NewCluster(seed uint64, workers int) *Cluster {
	if workers < 1 {
		workers = 1
	}
	return &Cluster{minLA: MaxTime, workers: workers, seed: seed, root: NewRNG(seed)}
}

// Workers reports the configured concurrency cap.
func (c *Cluster) Workers() int { return c.workers }

// MinLookahead reports the cluster-wide conservative window width: the
// minimum lookahead over all links (MaxTime when no links exist).
func (c *Cluster) MinLookahead() Time { return c.minLA }

// NewShard adds a shard with its own engine and RNG stream.
func (c *Cluster) NewShard(name string) *Shard {
	if c.started {
		panic("sim: NewShard after Cluster.Run started")
	}
	s := &Shard{
		id:      len(c.shards),
		name:    name,
		eng:     New(),
		rng:     c.root.Split(uint64(len(c.shards))),
		cluster: c,
	}
	s.eng.shard = s
	c.shards = append(c.shards, s)
	return s
}

// Shards returns the cluster's shards in creation order.
func (c *Cluster) Shards() []*Shard { return c.shards }

// Connect declares a directed cross-shard edge with the given lookahead,
// typically Link.XferTime of the smallest message the edge carries (plus any
// propagation delay). Zero or negative lookahead is rejected: conservative
// synchronization degenerates to zero-width windows without a positive
// horizon.
func (c *Cluster) Connect(src, dst *Shard, name string, lookahead Time) *CrossLink {
	if src.cluster != c || dst.cluster != c {
		panic("sim: Connect across clusters: " + name)
	}
	if src == dst {
		panic("sim: Connect shard to itself: " + name + " (schedule locally instead)")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf(
			"sim: cross-shard link %q declares lookahead %v; conservative windows need a positive horizon — derive it from the physical link latency (Link.XferTime)",
			name, lookahead))
	}
	l := &CrossLink{name: name, src: src, dst: dst, lookahead: lookahead}
	c.links = append(c.links, l)
	if lookahead < c.minLA {
		c.minLA = lookahead
	}
	return l
}

// checkAffinity diagnoses cross-shard misassignment: scheduling work onto a
// shard's engine while the cluster is mid-window but the shard's own worker
// is not the one executing. The nil fast path keeps standalone engines (the
// overwhelmingly common case) at one predicted branch.
//
//camlint:hotpath
func (e *Engine) checkAffinity() {
	if s := e.shard; s != nil && s.cluster.windowActive && !s.executing {
		panic(fmt.Sprintf(
			"sim: shard-affinity violation: event scheduled on shard %d (%q) from outside its worker during a parallel window; pin the scheduling component to this shard's engine or route the event through a CrossLink",
			s.id, s.name))
	}
}

// Run executes the cluster to global quiescence and returns the maximum
// shard virtual time. Deterministic for any worker count.
func (c *Cluster) Run() Time {
	if c.shutdown {
		panic("sim: Cluster.Run after Shutdown")
	}
	for {
		// T: global minimum next-event time across shards.
		t := MaxTime
		for _, s := range c.shards {
			if h := s.eng.q.minTime(); h < t {
				t = h
			}
		}
		if t == MaxTime {
			break
		}
		// Window [T, T+L): RunUntil takes an inclusive deadline.
		deadline := MaxTime
		if c.minLA != MaxTime && t <= MaxTime-c.minLA {
			deadline = t + c.minLA - 1
		}
		c.runWindow(deadline)
		c.exchangeBoundary()
	}
	var end Time
	for _, s := range c.shards {
		if s.eng.now > end {
			end = s.eng.now
		}
	}
	return end
}

// runWindow advances every shard to the deadline, in parallel when the
// cluster has both multiple workers and multiple shards.
func (c *Cluster) runWindow(deadline Time) {
	if c.workers <= 1 || len(c.shards) == 1 {
		for _, s := range c.shards {
			c.windowActive = true
			s.executing = true
			s.eng.RunUntil(deadline)
			s.executing = false
			c.windowActive = false
		}
		return
	}
	if !c.started {
		c.startWorkers()
	}
	c.windowActive = true
	for _, s := range c.shards {
		s.cmd <- deadline
	}
	for _, s := range c.shards {
		<-s.done
	}
	c.windowActive = false
}

// startWorkers launches one persistent goroutine per shard, capped to
// c.workers concurrent RunUntil calls by a semaphore. Persistent workers
// keep each shard's engine on a warm goroutine instead of respawning per
// window.
func (c *Cluster) startWorkers() {
	c.started = true
	sem := make(chan struct{}, c.workers)
	for _, s := range c.shards {
		s.cmd = make(chan Time)
		s.done = make(chan struct{})
		go func(s *Shard) {
			for dl := range s.cmd {
				sem <- struct{}{}
				s.executing = true
				s.eng.RunUntil(dl)
				s.executing = false
				<-sem
				s.done <- struct{}{}
			}
		}(s)
	}
}

// exchangeBoundary gathers every shard's outbox, orders it by the strict
// (time, source shard, source sequence) key, and injects the events into
// their destination engines. Runs between windows on the coordinator
// goroutine, so injection is single-threaded and the resulting destination
// sequence numbers are deterministic.
func (c *Cluster) exchangeBoundary() {
	c.xchg = c.xchg[:0]
	for _, s := range c.shards {
		c.xchg = append(c.xchg, s.outbox...)
		for i := range s.outbox {
			s.outbox[i] = boundaryEvent{}
		}
		s.outbox = s.outbox[:0]
	}
	if len(c.xchg) == 0 {
		return
	}
	sort.Slice(c.xchg, func(i, j int) bool {
		a, b := &c.xchg[i], &c.xchg[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range c.xchg {
		// An arrival in the destination's past would be a lookahead
		// violation, which Send already rejects; Schedule's clamp of a
		// negative delay is purely defensive.
		ev := &c.xchg[i]
		ev.dst.eng.Schedule(ev.at-ev.dst.eng.now, ev.fn)
	}
}

// Shutdown releases every shard engine's process goroutines and stops the
// persistent workers. The cluster is spent afterwards.
func (c *Cluster) Shutdown() {
	if c.shutdown {
		return
	}
	c.shutdown = true
	var wg sync.WaitGroup
	for _, s := range c.shards {
		if s.cmd != nil {
			close(s.cmd)
		}
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			s.eng.Shutdown()
		}(s)
	}
	wg.Wait()
}
