// Package trace records typed simulation events into a bounded ring — the
// observability layer for overlap behavior: when batches were published
// versus completed, when kernels held the GPU, when reactors dispatched
// I/O. Components accept a nil *Tracer, so tracing is zero-cost unless
// enabled.
package trace

import (
	"fmt"

	"camsim/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	BatchPublish Kind = iota
	BatchDispatch
	BatchComplete
	KernelStart
	KernelEnd
	IOSubmit
	IOComplete
	CoreAdjust
	FaultInject // injected device fault (media error, drop, latency spike)
	IOTimeout   // host deadline expired; command aborted
	IORetry     // host re-submitted a failed command
	DeviceFail  // host declared a device dead after repeated timeouts
	Custom
)

func (k Kind) String() string {
	switch k {
	case BatchPublish:
		return "batch-publish"
	case BatchDispatch:
		return "batch-dispatch"
	case BatchComplete:
		return "batch-complete"
	case KernelStart:
		return "kernel-start"
	case KernelEnd:
		return "kernel-end"
	case IOSubmit:
		return "io-submit"
	case IOComplete:
		return "io-complete"
	case CoreAdjust:
		return "core-adjust"
	case FaultInject:
		return "fault-inject"
	case IOTimeout:
		return "io-timeout"
	case IORetry:
		return "io-retry"
	case DeviceFail:
		return "device-fail"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At    sim.Time
	Kind  Kind
	Actor string // which component ("cam", "gpu0", "nvme3")
	What  string // free-form label ("train", "batch 7")
	Arg   int64  // kind-specific number (bytes, seq, cores)
}

// Tracer is a bounded event recorder. Methods on a nil Tracer are no-ops,
// so call sites never need to branch.
type Tracer struct {
	e       *sim.Engine
	ring    []Event
	next    int
	wrapped bool
}

// New creates a tracer holding up to capacity events (older events are
// overwritten once full).
func New(e *sim.Engine, capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Tracer{e: e, ring: make([]Event, 0, capacity)}
}

// Emit records an event at the current virtual time.
func (t *Tracer) Emit(kind Kind, actor, what string, arg int64) {
	if t == nil {
		return
	}
	ev := Event{At: t.e.Now(), Kind: kind, Actor: actor, What: what, Arg: arg}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev) // ring preallocated to capacity; append never regrows
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % cap(t.ring)
	t.wrapped = true
}

// Len reports how many events are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Events returns the retained events in time order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// OverlapReport computes, from batch and kernel events, how much of the
// total traced interval had I/O and compute in flight simultaneously —
// the quantity CAM exists to maximize.
func (t *Tracer) OverlapReport() (ioBusy, computeBusy, overlap, span sim.Time) {
	if t == nil {
		return
	}
	events := t.Events()
	if len(events) == 0 {
		return
	}
	start := events[0].At
	end := events[len(events)-1].At
	span = end - start
	ioDepth, kDepth := 0, 0
	var last sim.Time = start
	for _, ev := range events {
		dt := ev.At - last
		if ioDepth > 0 {
			ioBusy += dt
		}
		if kDepth > 0 {
			computeBusy += dt
		}
		if ioDepth > 0 && kDepth > 0 {
			overlap += dt
		}
		switch ev.Kind {
		case BatchPublish:
			ioDepth++
		case BatchComplete:
			if ioDepth > 0 {
				ioDepth--
			}
		case KernelStart:
			kDepth++
		case KernelEnd:
			if kDepth > 0 {
				kDepth--
			}
		}
		last = ev.At
	}
	return
}
