package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"camsim/internal/cam"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

// goldenIOs is the batch every golden event log records: 16 random 4 KiB
// reads over 4 SSDs.
const (
	goldenIOs   = 16
	goldenSSDs  = 4
	goldenBlock = 4096
)

// goldenShapes builds one 16-read batch per backend on env and returns the
// check that it completed. Each shape is small enough that its whole event
// log reads as a trace of one batch. The spdk and posix shapes go through
// their xfer backends, one helper per read on SPDK; posix reads whole
// granules of fig10a's POSIX size, 256 KiB or two RAID0 stripes.
var goldenShapes = []struct {
	name string
	run  func(t *testing.T, env *platform.Env, blocks []uint64) func()
}{
	{"cam", func(t *testing.T, env *platform.Env, blocks []uint64) func() {
		ccfg := cam.DefaultConfig(goldenSSDs)
		ccfg.MaxBatch = goldenIOs
		m := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
		buf := m.Alloc("golden", goldenIOs*goldenBlock)
		var b *cam.Batch
		env.E.Go("gpu", func(p *sim.Proc) {
			b = m.Prefetch(p, blocks, buf, 0)
			m.Synchronize(p, b)
		})
		return func() {
			if b == nil || !b.OK() {
				t.Errorf("cam batch did not complete cleanly")
			}
		}
	}},
	{"bam", func(t *testing.T, env *platform.Env, blocks []uint64) func() {
		a := newBaM(env).NewArray(goldenBlock)
		buf := env.GPU.Alloc("golden", goldenIOs*goldenBlock)
		failed := -1
		env.E.Go("gpu", func(p *sim.Proc) { failed = a.Gather(p, blocks, buf, 0) })
		return func() {
			if failed != 0 {
				t.Errorf("bam gather: %d failed blocks", failed)
			}
		}
	}},
	{"spdk", func(t *testing.T, env *platform.Env, blocks []uint64) func() {
		return goldenXferReads(t, env, xfer.NewSPDK(env, goldenBlock, goldenIOs), goldenBlock, blocks)
	}},
	{"io_uring-poll", func(t *testing.T, env *platform.Env, blocks []uint64) func() {
		st := oskernel.NewStack(env.E, oskernel.IOUringPoll, oskernel.DefaultConfig(oskernel.IOUringPoll), env.HM, env.Devs)
		env.StartDevices()
		c := &goldenCounter{}
		for i, blk := range blocks {
			env.E.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				pay := mem.NewPayload(goldenBlock, false)
				defer pay.Release()
				if st.ReadAtP(p, int64(blk)*goldenBlock, pay, 0, goldenBlock) == nvme.StatusSuccess {
					c.Run()
				}
			})
		}
		return func() {
			if c.n != goldenIOs {
				t.Errorf("io_uring poll: %d of %d reads succeeded", c.n, goldenIOs)
			}
		}
	}},
	{"posix", func(t *testing.T, env *platform.Env, blocks []uint64) func() {
		const g = 256 << 10
		return goldenXferReads(t, env, xfer.NewPOSIX(env, g, 4), g, blocks)
	}},
}

// goldenXferReads starts one read of a g-byte granule per block through b,
// all from one process, then waits for each in turn.
func goldenXferReads(t *testing.T, env *platform.Env, b xfer.Backend, g int64, blocks []uint64) func() {
	env.StartDevices()
	buf := b.Alloc("golden", int64(len(blocks))*g)
	n := 0
	env.E.Go("gpu", func(p *sim.Proc) {
		hs := make([]xfer.Handle, len(blocks))
		for i, blk := range blocks {
			hs[i] = b.StartRead(p, int64(blk)*g, g, buf, int64(i)*g)
		}
		for _, h := range hs {
			h.Wait(p)
			n++
		}
	})
	return func() {
		if n != len(blocks) {
			t.Errorf("%s: %d of %d granules landed", b.Name(), n, len(blocks))
		}
	}
}

// goldenCounter counts completions.
type goldenCounter struct{ n int }

func (c *goldenCounter) Run() { c.n++ }

// eventLog runs one golden shape and renders every dispatched event as one
// line: due time in ns, insertion sequence, callback type.
func eventLog(t *testing.T, shape int) []byte {
	env := platform.New(platform.Options{SSDs: goldenSSDs})
	defer env.E.Shutdown()
	var log bytes.Buffer
	env.E.OnDispatch(func(at sim.Time, seq uint64, cb sim.Callback) {
		fmt.Fprintf(&log, "%d %d %T\n", int64(at), seq, cb)
	})
	rng := sim.NewRNG(5)
	blocks := make([]uint64, goldenIOs)
	for i := range blocks {
		blocks[i] = uint64(rng.Int63n(1 << 20))
	}
	check := goldenShapes[shape].run(t, env, blocks)
	env.Run()
	check()
	return log.Bytes()
}

// logEventMix logs a shape's events per I/O by callback type, most
// frequent first (make events prints these lines).
func logEventMix(t *testing.T, shape string, log []byte) {
	kinds := map[string]int{}
	lines := strings.Split(strings.TrimSuffix(string(log), "\n"), "\n")
	for _, l := range lines {
		kinds[l[strings.LastIndexByte(l, ' ')+1:]]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		return kinds[names[i]] > kinds[names[j]] || kinds[names[i]] == kinds[names[j]] && names[i] < names[j]
	})
	for _, k := range names {
		t.Logf("%-13s %-20s %6d events  %.3f per I/O", shape, k, kinds[k], float64(kinds[k])/goldenIOs)
	}
	t.Logf("%-13s %-20s %6d events  %.3f per I/O", shape, "all", len(lines), float64(len(lines))/goldenIOs)
}

// TestGoldenEventLogs replays one 16-read batch on CAM, BaM, the SPDK and
// POSIX xfer backends and io_uring poll and compares every dispatched event
// — (due time, sequence, callback type) — with the log committed under
// testdata/events. A change that moves the model's event order fails
// here at the first event that differs; one that means to move it deletes
// the log, reruns the test to record it afresh, and commits the new log,
// whose diff is the review.
func TestGoldenEventLogs(t *testing.T) {
	for i, sh := range goldenShapes {
		t.Run(sh.name, func(t *testing.T) {
			got := eventLog(t, i)
			logEventMix(t, sh.name, got)
			path := filepath.Join("testdata", "events", sh.name+".log")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("recorded %s (%d events); commit it", path, bytes.Count(got, []byte("\n")))
			}
			if err != nil {
				t.Fatal(err)
			}
			g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for j := 0; j < len(g) || j < len(w); j++ {
				var gl, wl string
				if j < len(g) {
					gl = g[j]
				}
				if j < len(w) {
					wl = w[j]
				}
				if gl != wl {
					t.Fatalf("%s: event %d is %q, want %q (%d events, %d in the log)",
						path, j, gl, wl, len(g)-1, len(w)-1)
				}
			}
		})
	}
}
