// Package fault implements deterministic, seed-driven fault injection for
// the simulated storage stack: per-device schedules of media errors,
// latency spikes, command drops (the host sees a timeout), NAND program
// failures, and whole-device drop-out.
//
// Real NVMe management means handling the failure modes real devices
// exhibit — full-system SSD simulators (Amber, SimpleSSD) model them
// explicitly and GPU-native flash arrays (GNStor) must recover from them —
// so the reproduction injects them here and recovers in the driver layers
// (see DESIGN.md §12).
//
// Determinism: every Injector draws from a private sim.RNG stream derived
// only from (Plan.Seed, device index), never from the device's calibration
// jitter stream or any shared state. Commands reach a device in an order
// the discrete-event engine fixes per seed, each command consumes exactly
// one draw, and so the full fault schedule — which command fails, how, and
// when — replays byte-identically for a given seed, including under
// `cambench -parallel N`.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// Plan is one immutable fault schedule for a platform. A nil *Plan means
// no injection anywhere; every method is nil-safe.
type Plan struct {
	// Seed roots every per-device decision stream.
	Seed uint64

	// ErrRate is the per-command probability of an injected media error
	// (the command consumes its normal service and media time, then
	// completes with nvme.StatusMediaError and moves no data).
	ErrRate float64
	// DropRate is the per-command probability the controller silently
	// loses the command: no CQE is ever posted and the host's only way
	// out is a deadline timeout.
	DropRate float64
	// SlowRate is the per-command probability of a latency spike.
	SlowRate float64
	// SlowFactor multiplies the media latency of a spiked command
	// (default 16 when SlowRate > 0).
	SlowFactor float64
	// ProgramFailRate is the per-page probability that a NAND program
	// fails inside the FTL; the page is marked dead and the write retries
	// on the next page, as a real flash controller does.
	ProgramFailRate float64

	// FailDev, when >= 0, names the device index that drops out entirely
	// at virtual time FailAt: from then on it never answers another
	// command. Hosts detect the loss via consecutive timeouts.
	FailDev int
	// FailAt is the drop-out instant for FailDev.
	FailAt sim.Time
}

// NewPlan returns a plan with the given seed and no faults armed. Use it
// (not a Plan literal) when building plans in code: the zero value of
// FailDev selects device 0, so a literal that forgets FailDev: -1 kills a
// device at time zero. ParseSpec initializes it correctly on its own.
func NewPlan(seed uint64) *Plan {
	return &Plan{Seed: seed, FailDev: -1}
}

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.ErrRate > 0 || p.DropRate > 0 || p.SlowRate > 0 ||
		p.ProgramFailRate > 0 || p.FailDev >= 0
}

// CheckDevices reports an error when the plan's drop-out device is not one
// of a machine's n SSDs (a drop-out that would never happen).
func (p *Plan) CheckDevices(n int) error {
	if p != nil && p.FailDev >= n {
		return fmt.Errorf("faildev=%d: the machine has %d SSDs (0-%d)", p.FailDev, n, n-1)
	}
	return nil
}

// String renders the plan in the -faults spec syntax.
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.ErrRate > 0 {
		parts = append(parts, fmt.Sprintf("rate=%g", p.ErrRate))
	}
	if p.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropRate))
	}
	if p.SlowRate > 0 {
		parts = append(parts, fmt.Sprintf("slow=%g,slowx=%g", p.SlowRate, p.SlowFactor))
	}
	if p.ProgramFailRate > 0 {
		parts = append(parts, fmt.Sprintf("progfail=%g", p.ProgramFailRate))
	}
	if p.FailDev >= 0 {
		parts = append(parts, fmt.Sprintf("faildev=%d,failat=%s", p.FailDev, p.FailAt))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a -faults flag value into a plan.
//
// Two forms are accepted:
//
//	seed:rate                  shorthand — e.g. "7:1e-4"
//	key=val[,key=val...]       full form — e.g. "seed=7,rate=1e-4,drop=2e-5,
//	                           slow=1e-4,slowx=8,progfail=1e-5,
//	                           faildev=3,failat=1.5s"
//
// An empty spec or "off" returns (nil, nil): injection disabled.
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	p := &Plan{FailDev: -1}
	if !strings.Contains(spec, "=") {
		// Shorthand seed:rate.
		seedStr, rateStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("fault: spec %q: want seed:rate or key=val,...", spec)
		}
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: bad seed: %v", spec, err)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: bad rate: %v", spec, err)
		}
		p.Seed, p.ErrRate = seed, rate
		return p.normalize()
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: spec %q: %q is not key=val", spec, kv)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "rate", "err":
			p.ErrRate, err = strconv.ParseFloat(val, 64)
		case "drop":
			p.DropRate, err = strconv.ParseFloat(val, 64)
		case "slow":
			p.SlowRate, err = strconv.ParseFloat(val, 64)
		case "slowx":
			p.SlowFactor, err = strconv.ParseFloat(val, 64)
		case "progfail":
			p.ProgramFailRate, err = strconv.ParseFloat(val, 64)
		case "faildev":
			p.FailDev, err = strconv.Atoi(val)
		case "failat":
			var d float64
			switch {
			case strings.HasSuffix(val, "ms"):
				d, err = strconv.ParseFloat(strings.TrimSuffix(val, "ms"), 64)
				d *= float64(sim.Millisecond)
			case strings.HasSuffix(val, "us"):
				d, err = strconv.ParseFloat(strings.TrimSuffix(val, "us"), 64)
				d *= float64(sim.Microsecond)
			case strings.HasSuffix(val, "s"):
				d, err = strconv.ParseFloat(strings.TrimSuffix(val, "s"), 64)
				d *= float64(sim.Second)
			default:
				d, err = strconv.ParseFloat(val, 64) // bare nanoseconds
			}
			p.FailAt = sim.Time(d)
		default:
			return nil, fmt.Errorf("fault: spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: bad %s: %v", spec, key, err)
		}
	}
	return p.normalize()
}

// normalize validates ranges and fills defaults.
func (p *Plan) normalize() (*Plan, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"rate", p.ErrRate}, {"drop", p.DropRate}, {"slow", p.SlowRate},
		{"progfail", p.ProgramFailRate},
	} {
		if r.v < 0 || r.v > 1 {
			return nil, fmt.Errorf("fault: %s=%g out of [0,1]", r.name, r.v)
		}
	}
	if p.ErrRate+p.DropRate+p.SlowRate > 1 {
		return nil, fmt.Errorf("fault: rate+drop+slow=%g exceeds 1",
			p.ErrRate+p.DropRate+p.SlowRate)
	}
	if p.SlowRate > 0 && p.SlowFactor <= 1 {
		p.SlowFactor = 16
	}
	if p.FailDev >= 0 && p.FailAt < 0 {
		return nil, fmt.Errorf("fault: failat must be >= 0")
	}
	return p, nil
}

// Kind classifies one injection decision.
type Kind uint8

// Decision kinds.
const (
	None Kind = iota // execute normally
	Err              // complete with nvme.StatusMediaError, move no data
	Drop             // never complete; the host must time out
	Slow             // multiply media latency by the plan's SlowFactor
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Err:
		return "err"
	case Drop:
		return "drop"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Decision is the injector's verdict for one command.
type Decision struct {
	Kind Kind
	// SlowFactor is the media-latency multiplier when Kind == Slow.
	SlowFactor float64
}

// Stats counts what one injector actually injected.
type Stats struct {
	Errors       uint64 // media errors injected
	Drops        uint64 // commands silently dropped
	Slows        uint64 // latency spikes injected
	DeadDrops    uint64 // commands swallowed after device drop-out
	ProgramFails uint64 // NAND program failures injected
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Errors += o.Errors
	s.Drops += o.Drops
	s.Slows += o.Slows
	s.DeadDrops += o.DeadDrops
	s.ProgramFails += o.ProgramFails
}

// Injector is one device's private decision stream. A nil *Injector never
// injects, so devices hold one unconditionally.
type Injector struct {
	plan  *Plan
	dev   int
	rng   *sim.RNG
	stats Stats
}

// Injector derives device dev's injector from the plan. Returns nil for a
// nil plan, so callers can wire unconditionally.
func (p *Plan) Injector(dev int) *Injector {
	if p == nil {
		return nil
	}
	// Seed from (plan seed, device index) only: schedules are independent
	// of device construction order and of any other RNG in the system.
	return &Injector{
		plan: p,
		dev:  dev,
		rng:  sim.NewRNG(p.Seed ^ (uint64(dev)+1)*0x9e3779b97f4a7c15),
	}
}

// Plan reports the plan behind the injector (nil for a nil injector).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// Stats returns a snapshot of injected-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// DeviceDead reports whether this injector's device has dropped out as of
// virtual time now.
func (in *Injector) DeviceDead(now sim.Time) bool {
	return in != nil && in.plan.FailDev == in.dev && now >= in.plan.FailAt
}

// Decide draws the verdict for one I/O command at virtual time now. A dead
// device swallows everything without consuming a draw (its stream stays
// aligned with a run in which it never died); live devices consume exactly
// one draw per command.
func (in *Injector) Decide(now sim.Time, op nvme.Opcode) Decision {
	if in == nil {
		return Decision{}
	}
	if in.DeviceDead(now) {
		in.stats.DeadDrops++
		return Decision{Kind: Drop}
	}
	p := in.plan
	if p.ErrRate == 0 && p.DropRate == 0 && p.SlowRate == 0 {
		return Decision{}
	}
	_ = op
	u := in.rng.Float64()
	switch {
	case u < p.ErrRate:
		in.stats.Errors++
		return Decision{Kind: Err}
	case u < p.ErrRate+p.DropRate:
		in.stats.Drops++
		return Decision{Kind: Drop}
	case u < p.ErrRate+p.DropRate+p.SlowRate:
		in.stats.Slows++
		return Decision{Kind: Slow, SlowFactor: p.SlowFactor}
	}
	return Decision{}
}

// ProgramFail draws one NAND program-failure verdict. The FTL installs
// this as its program-fault source when the plan sets ProgramFailRate.
func (in *Injector) ProgramFail() bool {
	if in == nil || in.plan.ProgramFailRate == 0 {
		return false
	}
	if in.rng.Float64() < in.plan.ProgramFailRate {
		in.stats.ProgramFails++
		return true
	}
	return false
}
