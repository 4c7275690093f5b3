// Package platform wires the full simulated evaluation machine — the
// paper's Table III testbed: one A100-class GPU, up to twelve P5510-class
// NVMe SSDs behind a PCIe Gen4 fabric, and the Xeon host's DRAM. Every
// experiment, example, and benchmark builds one Env and composes drivers on
// top of it.
package platform

import (
	"fmt"

	"camsim/internal/fault"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

// Options selects the machine shape.
type Options struct {
	// SSDs is the device count (the paper sweeps 1–12).
	SSDs int
	// SSD overrides the per-device calibration (zero value → default).
	SSD ssd.Config
	// MemoryChannels, if nonzero, overrides the DRAM channel count (Fig
	// 15's "2c"/"16c" configurations).
	MemoryChannels int
	// Seed perturbs every device's private jitter stream.
	Seed uint64
	// Faults, when it injects anything, installs a per-device fault
	// injector derived from the plan (see internal/fault); the spdk and bam
	// drivers built over those devices arm their recovery from them. It is
	// the only way a plan reaches a machine: nil means every command
	// succeeds.
	Faults *fault.Plan
}

// Env is one simulated machine.
type Env struct {
	E     *sim.Engine
	Space *mem.Space
	Fab   *pcie.Fabric
	HM    *hostmem.Memory
	GPU   *gpu.GPU
	CE    *gpu.CopyEngine
	Devs  []*ssd.Device

	started bool
}

// New builds the machine. Devices are created but not started; call
// StartDevices after creating all queue pairs (drivers usually do this for
// you via their constructors, then you call StartDevices once).
func New(o Options) *Env {
	if o.SSDs <= 0 {
		o.SSDs = 12
	}
	if o.SSD.CapacityBytes == 0 {
		o.SSD = ssd.DefaultConfig()
	}
	host := hostmem.DefaultConfig()
	if o.MemoryChannels > 0 {
		host.Channels = o.MemoryChannels
	}
	e := sim.New()
	space := mem.NewSpace()
	env := &Env{
		E:     e,
		Space: space,
		Fab:   pcie.New(e, pcie.DefaultConfig()),
		HM:    hostmem.New(e, space, host),
		GPU:   gpu.New(e, "gpu0", gpu.DefaultConfig(), space),
		CE:    gpu.NewCopyEngine(e, "h2d"),
	}
	for i := 0; i < o.SSDs; i++ {
		cfg := o.SSD
		cfg.Seed = o.Seed*1000 + uint64(i) + 1
		d := ssd.New(e, fmt.Sprintf("nvme%d", i), cfg, env.Fab, space)
		if o.Faults.Enabled() {
			d.SetFaultInjector(o.Faults.Injector(i))
		}
		env.Devs = append(env.Devs, d)
	}
	return env
}

// FaultStats sums injected-fault counters across every device.
func (env *Env) FaultStats() fault.Stats {
	var s fault.Stats
	for _, d := range env.Devs {
		s.Add(d.Injector().Stats())
	}
	return s
}

// StartDevices launches every SSD controller. Safe to call once, after all
// queue pairs exist.
func (env *Env) StartDevices() {
	if env.started {
		return
	}
	env.started = true
	for _, d := range env.Devs {
		d.Start()
	}
}

// Run starts the devices (if needed) and runs the simulation to quiescence,
// returning the final virtual time.
func (env *Env) Run() sim.Time {
	env.StartDevices()
	return env.E.Run()
}
