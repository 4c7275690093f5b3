package main

import (
	"camsim/internal/platform"
	"camsim/internal/sim"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// envAgg sums the exported device, fabric, host-memory and GPU statistics
// of the machines a workload drove. Rates are weighted by each machine's
// simulated run time so that a workload of several machines reports the
// figure one machine running them back to back would.
type envAgg struct {
	simTime                 sim.Time
	readCmds, writeCmds     uint64
	errCmds                 uint64
	readLat, writeLat       sim.Time
	maxInFlight             int
	hostPages, nandPages    int64
	gcRuns                  int64
	pcieBytes, hostmemBytes int64
	pcieBusy, smBusy        float64 // utilisation × simulated seconds
}

func (a *envAgg) add(env *platform.Env, end sim.Time) {
	a.simTime += end
	for _, d := range env.Devs {
		st := d.Stats()
		a.readCmds += st.ReadCmds
		a.writeCmds += st.WriteCmds
		a.errCmds += st.ErrCmds
		a.readLat += st.ReadLatSum
		a.writeLat += st.WriteLatSum
		if st.MaxInFlight > a.maxInFlight {
			a.maxInFlight = st.MaxInFlight
		}
		ftl := d.FTL().Stats()
		a.hostPages += ftl.HostPages
		a.nandPages += ftl.NANDPages
		a.gcRuns += ftl.GCRuns
	}
	a.pcieBytes += env.Fab.TotalBytes()
	a.pcieBusy += env.Fab.Utilization() * end.Seconds()
	a.hostmemBytes += env.HM.TotalTraffic()
	a.smBusy += env.GPU.MeanSMUtilization() * end.Seconds()
}

func (a *envAgg) emit(r *rep) {
	secs := a.simTime.Seconds()
	m := r.model
	m["ssd.read_cmds"] = float64(a.readCmds)
	m["ssd.write_cmds"] = float64(a.writeCmds)
	m["ssd.avg_read_lat_us"] = ratio(a.readLat.Micros(), float64(a.readCmds))
	m["ssd.avg_write_lat_us"] = ratio(a.writeLat.Micros(), float64(a.writeCmds))
	m["ssd.max_inflight"] = float64(a.maxInFlight)
	m["ssd.ftl_write_amp"] = ratio(float64(a.nandPages), float64(a.hostPages))
	m["ssd.gc_runs"] = float64(a.gcRuns)
	m["ssd.err_cmds"] = float64(a.errCmds)
	m["pcie.bytes"] = float64(a.pcieBytes)
	m["pcie.utilization"] = ratio(a.pcieBusy, secs)
	m["pcie.achieved_gbps"] = ratio(float64(a.pcieBytes), secs) / 1e9
	m["hostmem.traffic_bytes"] = float64(a.hostmemBytes)
	m["gpu.sm_util_mean"] = ratio(a.smBusy, secs)
}
