package sim

import (
	"fmt"
	"sort"
)

// This file implements the sharded DES coordinator: a Cluster partitions a
// simulation into Shards (one Engine each, with its own event queue)
// synchronized by conservative lookahead exchange, the classic
// Chandy–Misra–Bryant null-message discipline specialized to a barrier form:
//
//	window:   every shard runs [T, T+L), one after another, where T is the
//	          global minimum next-event time and L the minimum cross-shard
//	          lookahead;
//	barrier:  boundary events produced during the window are gathered,
//	          sorted by (time, source shard, source sequence) — a strict
//	          total order — and injected into their destination shards;
//	repeat    until every shard is quiescent.
//
// Determinism argument (DESIGN.md §6): each shard's Engine is a
// deterministic function of its injected events; a CrossLink only accepts
// sends with delay >= its lookahead, so every boundary event lands at or
// after the window end and never races events the destination already
// processed; and the barrier sort order does not depend on the order the
// shards ran in. The windows run serially: at the 605 ns lookahead of the one
// experiment that builds a Cluster, shard workers cost three times the wall
// time of running the shards in turn (DESIGN.md §6).
//
// The lookahead is physical, not invented: cross-shard topology edges map to
// fabric hops, and Link.XferTime of the minimum message size bounds how soon
// one side can observe the other. A zero lookahead would force zero-width
// windows (no progress guarantee), so Connect rejects it outright.

// Shard is one partition of a clustered simulation: an Engine plus the
// bookkeeping the coordinator needs. Device layers declare shard affinity by
// constructing against the shard's Engine; scheduling onto a shard's engine
// while a window is running some other shard is a misassignment and panics
// (see Engine.checkAffinity).
type Shard struct {
	id      int
	name    string
	eng     *Engine
	cluster *Cluster

	// executing is true while the coordinator is inside this shard's
	// RunUntil.
	executing bool

	// outbox collects boundary events produced during the current window.
	outbox []boundaryEvent
	outSeq uint64
}

// Engine returns the shard's private engine. All state owned by the shard
// must be built against it.
func (s *Shard) Engine() *Engine { return s.eng }

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
// now+delay. It must be called from the source shard (during its window, or
// between windows), and delay must be at least
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
type Cluster struct {
	shards []*Shard
	minLA  Time // minimum lookahead over all links; MaxTime if none

	// windowActive is true while a shard is running its window.
	windowActive bool
	shutdown     bool

	// exchange scratch, reused across barriers.
	xchg []boundaryEvent
}

// NewCluster creates an empty cluster.
func NewCluster() *Cluster { return &Cluster{minLA: MaxTime} }

// MinLookahead reports the cluster-wide conservative window width: the
// minimum lookahead over all links (MaxTime when no links exist).
func (c *Cluster) MinLookahead() Time { return c.minLA }

// NewShard adds a shard with its own engine.
func (c *Cluster) NewShard(name string) *Shard {
	s := &Shard{id: len(c.shards), name: name, eng: New(), cluster: c}
	s.eng.shard = s
	c.shards = append(c.shards, s)
	return s
}

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
	if lookahead < c.minLA {
		c.minLA = lookahead
	}
	return &CrossLink{name: name, src: src, dst: dst, lookahead: lookahead}
}

// checkAffinity diagnoses cross-shard misassignment: scheduling work onto a
// shard's engine while the cluster is mid-window but that shard is not the
// one executing. The nil fast path keeps standalone engines (the
// overwhelmingly common case) at one predicted branch.
func (e *Engine) checkAffinity() {
	if s := e.shard; s != nil && s.cluster.windowActive && !s.executing {
		panic(fmt.Sprintf(
			"sim: shard-affinity violation: event scheduled on shard %d (%q) from outside it during a window; pin the scheduling component to this shard's engine or route the event through a CrossLink",
			s.id, s.name))
	}
}

// Run executes the cluster to global quiescence and returns the maximum
// shard virtual time.
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

// runWindow advances every shard to the deadline, in shard order.
func (c *Cluster) runWindow(deadline Time) {
	for _, s := range c.shards {
		c.windowActive = true
		s.executing = true
		s.eng.RunUntil(deadline)
		s.executing = false
		c.windowActive = false
	}
}

// exchangeBoundary gathers every shard's outbox, orders it by the strict
// (time, source shard, source sequence) key, and injects the events into
// their destination engines. Runs between windows, so the destination
// sequence numbers follow the sorted order.
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

// Shutdown releases every shard engine's processes. The cluster is spent
// afterwards.
func (c *Cluster) Shutdown() {
	c.shutdown = true
	for _, s := range c.shards {
		s.eng.Shutdown()
	}
}
