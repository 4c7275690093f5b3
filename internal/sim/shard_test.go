package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestClusterCrossShardTieOrder pins the barrier exchange's total order:
// boundary events landing at the exact same destination instant — including
// exactly at a window boundary — execute in (time, source shard, source
// sequence) order, independent of Send call order.
func TestClusterCrossShardTieOrder(t *testing.T) {
	c := NewCluster()
	a := c.NewShard("a")
	b := c.NewShard("b")
	dst := c.NewShard("dst")
	const la = 100 * Nanosecond
	linkA := c.Connect(a, dst, "a-dst", la)
	linkB := c.Connect(b, dst, "b-dst", la)

	var order []string
	// Sends are issued inside window events (the only legal context). Shard
	// b's sends are scheduled before shard a's, and all three tokens land at
	// the identical instant la — the tie the barrier sort must break by
	// source shard id, then sequence.
	b.Engine().Schedule(0, func() {
		linkB.Send(la, func() { order = append(order, "b0") })
		linkB.Send(la, func() { order = append(order, "b1") })
	})
	a.Engine().Schedule(0, func() {
		linkA.Send(la, func() { order = append(order, "a0") })
	})
	end := c.Run()
	if end != la {
		t.Fatalf("cluster end = %v, want %v (token arrival)", end, la)
	}
	if got, want := strings.Join(order, ","), "a0,b0,b1"; got != want {
		t.Errorf("tie at t=%v executed as [%s], want [%s] (time, src shard, src seq)", la, got, want)
	}
	c.Shutdown()
}

// TestClusterZeroLookaheadRejected verifies Connect refuses edges that
// cannot support conservative windows: zero or negative lookahead.
func TestClusterZeroLookaheadRejected(t *testing.T) {
	for _, la := range []Time{0, -5 * Nanosecond} {
		c := NewCluster()
		a := c.NewShard("a")
		b := c.NewShard("b")
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Connect with lookahead %v did not panic", la)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "positive horizon") {
					t.Errorf("lookahead %v panic = %q, want a message pointing at the positive-horizon requirement", la, msg)
				}
			}()
			c.Connect(a, b, "bad", la)
		}()
		c.Shutdown()
	}
}

// TestClusterSendBelowLookaheadRejected verifies the other half of the
// conservative contract: a cross-link send undercutting its declared
// lookahead would land in time the destination may already have simulated,
// and panics instead.
func TestClusterSendBelowLookaheadRejected(t *testing.T) {
	c := NewCluster()
	a := c.NewShard("a")
	b := c.NewShard("b")
	const la = 200 * Nanosecond
	link := c.Connect(a, b, "a-b", la)
	a.Engine().Schedule(0, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Send below lookahead did not panic")
				return
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "below its lookahead") {
				t.Errorf("panic = %q, want a below-lookahead message", msg)
			}
		}()
		link.Send(la-1, func() {})
	})
	c.Run()
	c.Shutdown()
}

// TestClusterAffinityMisassignmentPanics verifies the shard-affinity
// diagnostic: scheduling onto another shard's engine from inside a window
// is a misassignment (it bypasses the barrier exchange that orders
// cross-shard events) and must panic with a message that names the violated
// shard and the fix.
func TestClusterAffinityMisassignmentPanics(t *testing.T) {
	c := NewCluster()
	a := c.NewShard("a")
	b := c.NewShard("b")
	c.Connect(a, b, "a-b", 100*Nanosecond)
	caught := make(chan string, 1)
	a.Engine().Schedule(0, func() {
		defer func() {
			if r := recover(); r != nil {
				caught <- fmt.Sprint(r)
				panic(r) // keep unwinding: the cluster run must not continue
			}
		}()
		b.Engine().Schedule(0, func() {}) // wrong engine: b is not executing
	})
	func() {
		defer func() { recover() }()
		c.Run()
	}()
	select {
	case msg := <-caught:
		if !strings.Contains(msg, "shard-affinity violation") || !strings.Contains(msg, `shard 1 ("b")`) {
			t.Errorf("panic = %q, want a shard-affinity violation naming shard 1 (\"b\")", msg)
		}
		if !strings.Contains(msg, "CrossLink") {
			t.Errorf("panic = %q, want the remedy (route through a CrossLink) in the message", msg)
		}
	default:
		t.Error("scheduling on a foreign shard engine mid-window did not panic")
	}
	c.Shutdown()
}
