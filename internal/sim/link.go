package sim

// Link models a shared bandwidth-limited channel: a PCIe fabric, a DRAM
// channel group, or an SSD's internal flash bandwidth.
//
// Transfers are serialized FIFO at the configured byte rate, which makes the
// aggregate throughput under contention exactly the link rate — the property
// the paper's bandwidth ceilings depend on — while individual transfer
// latency grows with queue depth, as on real fabrics. A per-transfer fixed
// overhead models protocol headers (PCIe TLP, NVMe PRP walks).
type Link struct {
	e           *Engine
	name        string
	bytesPerSec float64
	perXferOvh  Time // fixed cost added to every transfer
	busyUntil   Time

	// accounting
	totalBytes int64
	busyTime   Time // integrated busy time for utilization
}

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

// Reserve books n bytes on the link and returns the virtual time the
// transfer completes. It never blocks; callers schedule their own
// continuation (or Sleep until the returned time).
func (l *Link) Reserve(n int64) Time {
	start := l.e.now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	end := start + l.xferTime(n)
	l.busyUntil = end
	l.totalBytes += n
	l.busyTime += end - start
	return end
}

// Transfer books n bytes and blocks p until the transfer completes.
func (l *Link) Transfer(p *Proc, n int64) {
	p.SleepUntil(l.Reserve(n))
}

// TotalBytes reports all bytes ever reserved.
func (l *Link) TotalBytes() int64 { return l.totalBytes }

// Utilization reports integrated busy time divided by elapsed virtual time
// (0 if no time has passed).
func (l *Link) Utilization() float64 {
	if l.e.now == 0 {
		return 0
	}
	busy := l.busyTime
	// Don't count reserved-but-future time as already elapsed.
	if l.busyUntil > l.e.now {
		busy -= l.busyUntil - l.e.now
	}
	if busy < 0 {
		busy = 0
	}
	return float64(busy) / float64(l.e.now)
}

// AchievedBandwidth reports totalBytes / elapsed time in bytes per second.
func (l *Link) AchievedBandwidth() float64 {
	if l.e.now == 0 {
		return 0
	}
	return float64(l.totalBytes) / l.e.now.Seconds()
}
