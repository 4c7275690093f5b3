package fault

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camsim/internal/nvme"
	"camsim/internal/sim"
)

func TestParseSpecShorthand(t *testing.T) {
	p, err := ParseSpec("7:1e-4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.ErrRate != 1e-4 {
		t.Fatalf("got %+v", p)
	}
	if p.FailDev != -1 {
		t.Fatalf("shorthand plan has FailDev=%d, want -1", p.FailDev)
	}
}

func TestParseSpecFull(t *testing.T) {
	p, err := ParseSpec("seed=9,rate=1e-3,drop=2e-4,slow=1e-3,slowx=8,progfail=1e-5,faildev=3,failat=1.5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 9, ErrRate: 1e-3, DropRate: 2e-4, SlowRate: 1e-3,
		SlowFactor: 8, ProgramFailRate: 1e-5, FailDev: 3, FailAt: 1500 * sim.Microsecond}
	if *p != *want {
		t.Fatalf("got %+v, want %+v", p, want)
	}
}

func TestParseSpecTimeSuffixes(t *testing.T) {
	for _, tc := range []struct {
		val  string
		want sim.Time
	}{
		{"250us", 250 * sim.Microsecond},
		{"3ms", 3 * sim.Millisecond},
		{"2s", 2 * sim.Second},
		{"1500", 1500 * sim.Nanosecond},
	} {
		p, err := ParseSpec("faildev=0,failat=" + tc.val)
		if err != nil {
			t.Fatalf("failat=%s: %v", tc.val, err)
		}
		if p.FailAt != tc.want {
			t.Errorf("failat=%s parsed as %v, want %v", tc.val, p.FailAt, tc.want)
		}
	}
}

func TestParseSpecOff(t *testing.T) {
	for _, s := range []string{"", "off", "  off  "} {
		p, err := ParseSpec(s)
		if err != nil || p != nil {
			t.Fatalf("ParseSpec(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
	if (*Plan)(nil).Enabled() {
		t.Fatal("nil plan reports Enabled")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"junk", "x:y", "7:", "seed=a", "rate=2", "drop=-0.1",
		"rate=0.6,drop=0.6", "what=1", "faildev=0,failat=zz",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestSlowFactorDefault(t *testing.T) {
	p, err := ParseSpec("seed=1,slow=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.SlowFactor != 16 {
		t.Fatalf("SlowFactor = %g, want default 16", p.SlowFactor)
	}
}

func TestStringRoundTrip(t *testing.T) {
	in := "seed=9,rate=0.001,drop=0.0002,slow=0.001,slowx=8,progfail=1e-05,faildev=3,failat=1.5ms"
	p, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if *p != *p2 {
		t.Fatalf("round trip changed plan: %+v vs %+v", p, p2)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if d := in.Decide(0, nvme.OpRead); d.Kind != None {
		t.Fatalf("nil injector decided %v", d.Kind)
	}
	if in.ProgramFail() {
		t.Fatal("nil injector failed a program")
	}
	if in.DeviceDead(sim.Second) {
		t.Fatal("nil injector reported dead device")
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats %+v", s)
	}
	if (*Plan)(nil).Injector(0) != nil {
		t.Fatal("nil plan produced an injector")
	}
}

// decisions replays n draws from a fresh injector for (seed, dev).
func decisions(seed uint64, dev, n int) []Kind {
	p := NewPlan(seed)
	p.ErrRate, p.DropRate, p.SlowRate = 0.1, 0.1, 0.1
	in := p.Injector(dev)
	out := make([]Kind, n)
	for i := range out {
		out[i] = in.Decide(0, nvme.OpRead).Kind
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	a := decisions(42, 3, 500)
	b := decisions(42, 3, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestInjectorStreamsIndependentAcrossDevices(t *testing.T) {
	a := decisions(42, 0, 500)
	b := decisions(42, 1, 500)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("device 0 and 1 drew identical schedules")
	}
}

func TestStackedRates(t *testing.T) {
	// Rates that sum to 1 leave no room for success.
	p := NewPlan(1)
	p.ErrRate, p.DropRate, p.SlowRate = 0.5, 0.3, 0.2
	in := p.Injector(0)
	counts := map[Kind]int{}
	for i := 0; i < 2000; i++ {
		counts[in.Decide(0, nvme.OpRead).Kind]++
	}
	if counts[None] != 0 {
		t.Fatalf("%d commands escaped with rates summing to 1", counts[None])
	}
	st := in.Stats()
	if int(st.Errors) != counts[Err] || int(st.Drops) != counts[Drop] || int(st.Slows) != counts[Slow] {
		t.Fatalf("stats %+v disagree with observed %v", st, counts)
	}
	// Rough proportions: each bucket within ±50% of expectation.
	for k, want := range map[Kind]int{Err: 1000, Drop: 600, Slow: 400} {
		if got := counts[k]; got < want/2 || got > want*2 {
			t.Errorf("%v count %d far from expected %d", k, got, want)
		}
	}
}

func TestSlowDecisionCarriesFactor(t *testing.T) {
	p := NewPlan(1)
	p.SlowRate, p.SlowFactor = 1, 8
	d := p.Injector(0).Decide(0, nvme.OpRead)
	if d.Kind != Slow || d.SlowFactor != 8 {
		t.Fatalf("got %+v", d)
	}
}

func TestDeadDeviceSwallowsWithoutDraws(t *testing.T) {
	mk := func(fail bool) *Injector {
		p := NewPlan(11)
		p.ErrRate = 0.2
		if fail {
			p.FailDev, p.FailAt = 0, 100
		}
		return p.Injector(0)
	}
	dead, twin := mk(true), mk(false)
	// Before FailAt both injectors draw identically.
	for i := 0; i < 50; i++ {
		if a, b := dead.Decide(50, nvme.OpRead), twin.Decide(50, nvme.OpRead); a != b {
			t.Fatalf("pre-failure draw %d differs: %+v vs %+v", i, a, b)
		}
	}
	// While dead, every command drops without consuming a draw...
	for i := 0; i < 30; i++ {
		if d := dead.Decide(200, nvme.OpRead); d.Kind != Drop {
			t.Fatalf("dead device returned %v", d.Kind)
		}
	}
	if dd := dead.Stats().DeadDrops; dd != 30 {
		t.Fatalf("DeadDrops = %d, want 30", dd)
	}
	// ...so the stream stays aligned with the never-died twin. (The device
	// cannot come back, but stream alignment is what makes schedules on
	// OTHER runs comparable; verify via the underlying RNG position by
	// drawing with the fail window behind us on a fresh pair.)
	a, b := mk(true), mk(false)
	for i := 0; i < 50; i++ {
		a.Decide(99, nvme.OpRead) // live: consumes draws
		b.Decide(99, nvme.OpRead)
	}
	for i := 0; i < 10; i++ {
		a.Decide(150, nvme.OpRead) // dead: no draw
	}
	// Twin did not draw during the dead window either — streams agree if a
	// dead period consumed nothing. Compare via ProgramFail draws, which
	// share the RNG.
	if x, y := a.ProgramFail(), b.ProgramFail(); x != y {
		t.Fatalf("dead period consumed RNG draws: %v vs %v", x, y)
	}
}

func TestProgramFailDeterministic(t *testing.T) {
	run := func() []bool {
		p := NewPlan(3)
		p.ProgramFailRate = 0.3
		in := p.Injector(2)
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.ProgramFail()
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("degenerate fail count %d", fails)
	}
}

// TestScheduleReplaysForAnySeed is the package's core property: for any
// seed, the full decision schedule replays identically.
func TestScheduleReplaysForAnySeed(t *testing.T) {
	f := func(seed uint64, dev uint8) bool {
		a := decisions(seed, int(dev), 64)
		b := decisions(seed, int(dev), 64)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
