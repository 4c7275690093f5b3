package kvcache

import (
	"fmt"
	"strings"
	"testing"

	"camsim/internal/bam"
	"camsim/internal/fault"
	"camsim/internal/gpu"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

// testConfig is a tight serving setup: the tier barely clears the
// deadlock floor, so most of the context churns through the SSD.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Layers = 2
	cfg.DRAMBlocks = 40 // floor: 3 sessions * 2 layers * 4 + 8 = 32
	return cfg
}

func testSpecs() []SessionSpec {
	return []SessionSpec{
		{Prompt: 224, Decode: 12},
		{Prompt: 256, Decode: 10},
		{Prompt: 192, Decode: 14},
	}
}

// newBackend builds the named list backend over env.
func newBackend(t testing.TB, env *platform.Env, sys string, blockBytes int64) xfer.ListBackend {
	t.Helper()
	switch sys {
	case "CAM":
		return xfer.NewCAM(env, blockBytes, nil)
	case "BaM":
		return xfer.NewBaM(env, bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs), blockBytes)
	case "SPDK":
		return xfer.NewSPDK(env, blockBytes, 4)
	}
	t.Fatalf("unknown backend %q", sys)
	return nil
}

// serveOnce runs the test workload on one backend and returns the server.
func serveOnce(t testing.TB, sys string, faults *fault.Plan) (*Server, *platform.Env) {
	t.Helper()
	cfg := testConfig()
	env := platform.New(platform.Options{SSDs: 2, Faults: faults})
	lb := newBackend(t, env, sys, cfg.BlockBytes)
	srv := New(env, lb, cfg, testSpecs())
	var verr error
	env.E.Go("serve", func(p *sim.Proc) {
		srv.Serve(p)
		verr = srv.Verify(p)
	})
	env.Run()
	if verr != nil {
		t.Fatalf("%s: %v", sys, verr)
	}
	return srv, env
}

// TestServeBackends: the serving workload completes with full data-plane
// integrity on every list backend, actually exercises the spill path, and
// the per-session checksums agree across backends (the decode stream is a
// pure function of the workload, never of the storage engine).
func TestServeBackends(t *testing.T) {
	type run struct {
		sums  []uint64
		stats Stats
	}
	var ref *run
	var refSys string
	for _, sys := range []string{"CAM", "BaM", "SPDK"} {
		t.Run(sys, func(t *testing.T) {
			srv, _ := serveOnce(t, sys, nil)
			st := srv.Stats()
			if st.DecodedTokens != 36 {
				t.Errorf("decoded %d tokens, want 36", st.DecodedTokens)
			}
			if st.Spills == 0 || st.Fills == 0 {
				t.Errorf("no tier churn: %+v", st)
			}
			if st.Prefetched == 0 {
				t.Errorf("prefetcher never served an access: %+v", st)
			}
			if srv.TTFT().Count() != len(testSpecs()) {
				t.Errorf("TTFT samples = %d, want %d", srv.TTFT().Count(), len(testSpecs()))
			}
			r := &run{stats: st}
			for i := range testSpecs() {
				sum, expect := srv.SessionChecksum(i)
				if sum != expect {
					t.Errorf("session %d: checksum %#x != expected %#x", i, sum, expect)
				}
				r.sums = append(r.sums, sum)
			}
			if ref == nil {
				ref, refSys = r, sys
				return
			}
			for i, s := range r.sums {
				if s != ref.sums[i] {
					t.Errorf("session %d: %s checksum %#x, %s checksum %#x", i, sys, s, refSys, ref.sums[i])
				}
			}
		})
	}
}

// TestServeDeterministicReplay: the same backend and workload replayed in
// one process lands on identical stats, timings, and checksums.
func TestServeDeterministicReplay(t *testing.T) {
	fingerprint := func() string {
		srv, env := serveOnce(t, "CAM", nil)
		st := srv.Stats()
		return fmt.Sprintf("%+v end=%d ttft=%v step=%v", st, env.E.Now(),
			srv.TTFT().Summary("us"), srv.StepLatency().Summary("us"))
	}
	a, b := fingerprint(), fingerprint()
	if a != b {
		t.Fatalf("replay diverged:\n%s\n%s", a, b)
	}
}

// TestServeUnderFaults is the recovery asymmetry between the CPU-managed and
// the GPU-managed control planes, executable. Under an aggressive plan of
// media errors, dropped commands and latency spikes, CAM and SPDK (retries
// armed by the faulted devices, as under cambench -faults) still finish
// with clean checksums. BaM has no retry path: it survives a plan that only
// slows commands down, and under one that fails them the transfer that lost
// a block says so instead of handing its frame over unfilled.
func TestServeUnderFaults(t *testing.T) {
	plan := func(err, drop, slow float64) *fault.Plan {
		p := fault.NewPlan(7)
		p.ErrRate, p.DropRate, p.SlowRate, p.SlowFactor = err, drop, slow, 8
		return p
	}
	for _, c := range []struct {
		name, sys string
		plan      *fault.Plan
		lost      bool // the run must stop at an explicit xfer(bam) failure
	}{
		{"CAM", "CAM", plan(2e-3, 1e-3, 5e-3), false},
		{"SPDK", "SPDK", plan(2e-3, 1e-3, 5e-3), false},
		{"BaM/slow", "BaM", plan(0, 0, 5e-3), false},
		{"BaM/err", "BaM", plan(2e-3, 0, 0), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var env *platform.Env
			lost := func() (v any) {
				defer func() { v = recover() }()
				_, env = serveOnce(t, c.sys, c.plan) // fails the test on a checksum mismatch
				return nil
			}()
			if c.lost {
				if msg := fmt.Sprint(lost); !strings.HasPrefix(msg, "xfer(bam): ") || !strings.HasSuffix(msg, "blocks failed; BaM has no retry path") {
					t.Fatalf("serving ended with %v, want the explicit xfer(bam) failure", lost)
				}
				return
			}
			if lost != nil {
				t.Fatalf("serving did not survive the plan: %v", lost)
			}
			if fs := env.FaultStats(); fs.Errors+fs.Drops+fs.Slows == 0 {
				t.Fatal("fault plan injected nothing")
			}
		})
	}
}

// TestNewRejectsUndersizedTier: a tier smaller than the pinned-working-set
// floor must be rejected up front (it would deadlock, not degrade).
func TestNewRejectsUndersizedTier(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBlocks = 8
	env := platform.New(platform.Options{SSDs: 2})
	lb := newBackend(t, env, "CAM", cfg.BlockBytes)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a deadlock-sized tier")
		}
	}()
	New(env, lb, cfg, testSpecs())
}

// TestResidentStepAllocatesNothing: once a session's scratch slices have
// reached their working sizes, a decode step whose access set is resident
// costs kvcache no allocation — computing the set, touching and pinning it,
// folding the stamps and unpinning.
func TestResidentStepAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBlocks = 128 // the whole context of testSpecs fits: nothing spills
	env := platform.New(platform.Options{SSDs: 2})
	srv := New(env, newBackend(t, env, "CAM", cfg.BlockBytes), cfg, testSpecs())
	env.E.Go("serve", func(p *sim.Proc) {
		srv.Serve(p)
		if st := srv.Stats(); st.Spills != 0 || st.Misses != 0 {
			t.Errorf("tier sized to hold everything still churned: %+v", st)
		}
		for _, ss := range srv.sessions {
			step := func() {
				ss.accessSet(ss.spec.Decode - 1)
				ss.ensureResident(p)
				ss.attend()
				ss.unpinAll()
			}
			if n := testing.AllocsPerRun(100, step); n != 0 {
				t.Errorf("session %d: a resident decode step allocates %.2f times, want 0", ss.id, n)
			}
		}
		if err := srv.Verify(p); err != nil {
			t.Error(err)
		}
	})
	env.Run()
}

// instantList completes every list transfer at once and moves no bytes, so
// what a fill or a spill still costs is kvcache's own bookkeeping.
type instantList struct{ xfer.ListBackend }

type instantDone struct{}

func (instantDone) Wait(*sim.Proc) {}

func (instantList) StartGatherList(*sim.Proc, []uint64, *gpu.Buffer, []int64) xfer.Handle {
	return instantDone{}
}

func (instantList) StartScatterList(*sim.Proc, []uint64, *gpu.Buffer, []int64) xfer.Handle {
	return instantDone{}
}

// TestTransferBatchesAllocateNothing: at steady state a spill batch and a
// fill batch allocate nothing in kvcache, whatever their size and however
// long the run — the inflight records, their key/id/offset slices and the
// frame signal are all recycled. A round registers 2n new dirty blocks in a
// full 64-frame tier, which pushes older ones out in spill batches of n, and
// reads the n oldest spilled blocks back in one fill batch.
func TestTransferBatchesAllocateNothing(t *testing.T) {
	for _, n := range []int{4, 16} {
		cfg := testConfig()
		cfg.DRAMBlocks, cfg.EvictBatch = 64, n
		env := platform.New(platform.Options{SSDs: 2})
		lb := instantList{newBackend(t, env, "CAM", cfg.BlockBytes)}
		srv := New(env, lb, cfg, []SessionSpec{{Prompt: 1 << 15, Decode: 1}})
		env.E.Go("churn", func(p *sim.Proc) {
			ss := srv.sessions[0]
			block := func(i int) (l, b int) { return i % cfg.Layers, i / cfg.Layers }
			made, cursor := 0, 0
			create := func(k int) {
				for end := made + k; made < end; made++ {
					l, b := block(made)
					ss.frames = srv.reserveFrames(p, 1, ss.frames[:0])
					srv.tier.Insert(MakeKey(0, l, b), ss.frames[0], true, false)
					ss.m.Create(l, b, ss.frames[0])
				}
			}
			create(cfg.DRAMBlocks) // fill the tier: from here every frame costs an eviction
			round := func() {
				create(2 * n)
				ss.fetch = ss.fetch[:0]
				for ; len(ss.fetch) < n; cursor++ {
					if l, b := block(cursor); ss.m.State(l, b) == StateSpilled {
						ss.fetch = append(ss.fetch, MakeKey(0, l, b))
					}
				}
				ss.frames = srv.reserveFrames(p, n, ss.frames[:0])
				srv.settle(p, srv.startFill(p, ss.fetch, ss.frames))
			}
			for i := 0; i < 8; i++ {
				round()
			}
			if a := testing.AllocsPerRun(50, round); a != 0 {
				t.Errorf("batches of %d: a steady-state round allocates %.2f times, want 0", n, a)
			}
			st := srv.Stats()
			if st.Spills < uint64(50*n) || st.Fills < uint64(50*n) || st.CleanDrops == 0 {
				t.Errorf("batches of %d: the rounds did not churn the tier: %+v", n, st)
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Errorf("batches of %d: %v", n, err)
			}
		})
		env.Run()
	}
}
