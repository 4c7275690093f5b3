package sim

import "slices"

// Link models a shared bandwidth-limited channel: a PCIe fabric, a DRAM
// channel group, or a GPU copy engine.
//
// A transfer of n bytes holds the link for xferTime(n): a fixed
// per-transfer overhead (PCIe TLP headers, NVMe PRP walks) plus n bytes at
// the configured rate. The link keeps its future busy time as a sorted
// list of spans and gives a transfer the earliest free link time from its
// ready instant on, filling the gaps between transfers booked ahead of the
// clock and spanning several of them, the way the TLPs of concurrent DMAs
// interleave. So the link is never idle while a booked transfer is ready
// and unfinished, and aggregate throughput under contention is exactly the
// link rate, the ceiling the paper's figures run into. Reservations made
// in time order, every Reserve among them, find no gap after their ready
// instant and are served FIFO: max(at, end of the busy time) + xferTime(n).
type Link struct {
	e           *Engine
	name        string
	bytesPerSec float64
	perXferOvh  Time // fixed cost added to every transfer

	// spans[head:] are the busy spans that have not ended: sorted,
	// disjoint and never touching (a booking merges with every span it
	// meets). Ended spans are skipped by advancing head and compacted away
	// in place, so a steady stream allocates nothing once the slice grew.
	spans []span
	head  int

	// accounting
	totalBytes int64
	busyTime   Time // link time of every transfer booked, future ones included
}

// span is one busy interval of a link, [start, end).
type span struct{ start, end Time }

// NewLink creates a link with the given data rate in bytes per second and a
// fixed per-transfer overhead.
func (e *Engine) NewLink(name string, bytesPerSec float64, perXfer Time) *Link {
	if bytesPerSec <= 0 {
		panic("sim: NewLink rate must be positive: " + name)
	}
	return &Link{e: e, name: name, bytesPerSec: bytesPerSec, perXferOvh: perXfer}
}

// Engine reports the engine the link belongs to.
func (l *Link) Engine() *Engine { return l.e }

// xferTime is the service time for n bytes, excluding queueing.
func (l *Link) xferTime(n int64) Time {
	return l.perXferOvh + Time(float64(n)/l.bytesPerSec*float64(Second))
}

// Reserve books n bytes ready now; it is ReserveFrom(now, n) and returns
// the transfer's completion time. It never blocks; callers schedule their
// own continuation (or Sleep until the returned time).
func (l *Link) Reserve(n int64) Time {
	_, end := l.ReserveFrom(l.e.now, n)
	return end
}

// ReserveFrom books n bytes ready at instant at (the clock, if at is
// earlier) and returns the first instant the transfer holds the link and
// the instant it completes. The transfer takes xferTime(n) of link time,
// the earliest free time at or after at, filling gaps between transfers
// booked earlier; afterwards every instant of [at, end) is busy. A
// transfer ready inside a busy span starts when that span ends.
func (l *Link) ReserveFrom(at Time, n int64) (start, end Time) {
	at = max(at, l.e.now)
	left := l.xferTime(n)
	l.totalBytes += n
	l.busyTime += left
	l.prune()
	s := l.spans

	// i is the first span that ends after at.
	i, k := l.head, len(s)
	for i < k {
		if m := int(uint(i+k) >> 1); s[m].end > at {
			k = m
		} else {
			i = m + 1
		}
	}
	t, j := at, i
	if j < len(s) && s[j].start <= t {
		t = s[j].end
		j++
	}
	start = t
	// Take whole gaps until the one the transfer finishes in.
	for ; j < len(s); j++ {
		gap := s[j].start - t
		if gap >= left {
			break
		}
		left -= gap
		t = s[j].end
	}
	end = t + left
	if end == start {
		return start, end // no link time: nothing to book
	}

	// [start, end) is busy now: it replaces every span it meets, spans
	// i..j-1 and any that touch it at either edge.
	lo, hi := i, j
	if lo > l.head && s[lo-1].end == start {
		lo--
	}
	if hi < len(s) && s[hi].start == end {
		hi++
	}
	merged := span{start, end}
	if hi > lo {
		merged = span{min(start, s[lo].start), max(end, s[hi-1].end)}
	}
	if s == nil {
		// Start at 64 spans: a fabric under twelve SSDs keeps up to ~200
		// ahead of the clock, two doublings from here.
		s = make([]span, 0, 64)
	}
	l.spans = slices.Replace(s, lo, hi, merged)
	return start, end
}

// prune drops the spans that ended at or before the clock: it advances
// head past them and compacts the live spans to the front of the slice
// once half of it has ended, so each span is copied O(1) times.
func (l *Link) prune() {
	s, h := l.spans, l.head
	for h < len(s) && s[h].end <= l.e.now {
		h++
	}
	if 2*h >= len(s) {
		s, h = s[:copy(s, s[h:])], 0
	}
	l.spans, l.head = s, h
}

// Transfer books n bytes and blocks p until the transfer completes.
func (l *Link) Transfer(p *Proc, n int64) {
	p.SleepUntil(l.Reserve(n))
}

// TotalBytes reports all bytes ever reserved.
func (l *Link) TotalBytes() int64 { return l.totalBytes }

// Utilization reports the link time already spent on transfers divided by
// elapsed virtual time (0 if no time has passed): booked time that lies
// after the clock is not counted.
func (l *Link) Utilization() float64 {
	now := l.e.now
	if now == 0 {
		return 0
	}
	busy := l.busyTime
	for _, sp := range l.spans[l.head:] {
		if sp.end > now {
			busy -= sp.end - max(sp.start, now)
		}
	}
	return float64(busy) / float64(now)
}

// AchievedBandwidth reports totalBytes / elapsed time in bytes per second.
func (l *Link) AchievedBandwidth() float64 {
	if l.e.now == 0 {
		return 0
	}
	return float64(l.totalBytes) / l.e.now.Seconds()
}
