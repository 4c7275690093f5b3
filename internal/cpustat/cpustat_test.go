package cpustat

import (
	"math"
	"testing"

	"camsim/internal/sim"
)

func TestChargeAccumulates(t *testing.T) {
	var c Counters
	c.Charge(1000, 2.0)
	c.Charge(500, 1.0)
	if c.Instructions != 1500 {
		t.Fatalf("instructions = %g", c.Instructions)
	}
	if c.Cycles != 1000 {
		t.Fatalf("cycles = %g", c.Cycles)
	}
}

func TestPerRequestMeans(t *testing.T) {
	var c Counters
	c.Charge(3000, 3.0)
	c.Done(3)
	if c.PerRequestInstructions() != 1000 {
		t.Fatalf("per-request instr = %g", c.PerRequestInstructions())
	}
	if c.PerRequestCycles() != 1000.0/3 {
		t.Fatalf("per-request cycles = %g", c.PerRequestCycles())
	}
}

func TestZeroRequestsNoDivide(t *testing.T) {
	var c Counters
	if c.PerRequestInstructions() != 0 || c.PerRequestCycles() != 0 {
		t.Fatal("zero-request counters should report 0")
	}
}

func TestBadIPCPanics(t *testing.T) {
	var c Counters
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for IPC 0")
		}
	}()
	c.Charge(1, 0)
}

func TestCyclesTimeRoundTrip(t *testing.T) {
	// One second is 2.2e9 cycles at 2.2 GHz.
	if got := TimeToCycles(sim.Second); math.Abs(got-2.2e9) > 1 {
		t.Fatalf("TimeToCycles = %g", got)
	}
}

func TestAddMerges(t *testing.T) {
	var a, b Counters
	a.Charge(100, 1)
	a.Done(1)
	b.Charge(200, 2)
	b.Done(2)
	a.Add(b)
	if a.Requests != 3 || a.Instructions != 300 || a.Cycles != 200 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestChargeCycles(t *testing.T) {
	var c Counters
	c.ChargeCycles(42)
	if c.Cycles != 42 || c.Instructions != 0 {
		t.Fatalf("counters = %+v", c)
	}
}
