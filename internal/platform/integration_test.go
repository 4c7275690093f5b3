package platform_test

import (
	"bytes"
	"testing"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gnn"
	"camsim/internal/mem"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

// TestCrossStackInterop writes data through the kernel POSIX stack and
// reads it back through CAM's prefetch (and through BaM), over the same
// simulated SSDs. With CAM's block size set to the RAID0 stripe width the
// two layouts coincide, so this exercises the whole platform's claim that
// every I/O stack shares one honest storage substrate.
func TestCrossStackInterop(t *testing.T) {
	env := platform.New(platform.Options{SSDs: 3})

	stripe := int64(128 << 10)
	kcfg := oskernel.DefaultConfig(oskernel.POSIX)
	kcfg.StripeBytes = stripe
	stack := oskernel.NewStack(env.E, oskernel.POSIX, kcfg, env.HM, env.Devs)

	ccfg := cam.DefaultConfig(len(env.Devs))
	ccfg.BlockBytes = stripe
	mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)

	const blocks = 6
	n := blocks * stripe
	src := make([]byte, n)
	rng := sim.NewRNG(31)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	dst := mgr.Alloc("dst", n)

	env.E.Go("app", func(p *sim.Proc) {
		// Write through the kernel path...
		if st := stack.WriteAtP(p, 0, mem.WrapBytes(src), 0, int64(n)); st != 0 {
			t.Errorf("kernel write status %v", st)
		}
		// ...and read through CAM's GPU-initiated prefetch.
		ids := make([]uint64, blocks)
		for i := range ids {
			ids[i] = uint64(i)
		}
		mgr.Prefetch(p, ids, dst, 0)
		mgr.PrefetchSynchronize(p)
	})
	env.Run()

	if !bytes.Equal(dst.Bytes(), src) {
		t.Fatal("data written via POSIX kernel stack not readable via CAM prefetch")
	}
}

// TestCAMWriteReadableByBaM writes through CAM and gathers through BaM on
// the same devices with the same block layout.
func TestCAMWriteReadableByBaM(t *testing.T) {
	env := platform.New(platform.Options{SSDs: 2})
	ccfg := cam.DefaultConfig(2)
	ccfg.BlockBytes = 4096
	mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
	sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
	arr := sys.NewArray(4096)

	const blocks = 32
	src := mgr.Alloc("src", blocks*4096)
	dst := env.GPU.Alloc("dst", blocks*4096)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i % 249)
	}
	ids := make([]uint64, blocks)
	for i := range ids {
		ids[i] = uint64(i)
	}
	env.E.Go("app", func(p *sim.Proc) {
		mgr.WriteBack(p, ids, src, 0)
		mgr.WriteBackSynchronize(p)
		arr.Gather(p, ids, dst, 0)
	})
	env.Run()
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("CAM write_back not readable through BaM gather")
	}
}

// TestFullPipelineOnSharedPlatform runs GIDS and CAM trainers back to back
// on ONE platform instance (shared devices), verifying both read the same
// prepopulated features.
func TestFullPipelineOnSharedPlatform(t *testing.T) {
	env := platform.New(platform.Options{SSDs: 4})
	d := gnn.Paper100M().Scaled(3000)
	gnn.PrepopulateFeatures(env, d)
	cfg := gnn.DefaultTrainConfig()
	cfg.Batch = 16
	cfg.Fanouts = []int{3, 2}

	sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
	gids := gnn.NewGIDSTrainer(env, d, gnn.GCN, cfg, sys)
	gids.Verify = true

	mgr := cam.New(env.E, gnn.CAMConfig(4, d, cfg), env.GPU, env.HM, env.Space, env.Fab, env.Devs)
	camTr := gnn.NewCAMTrainer(env, d, gnn.GCN, cfg, mgr)
	camTr.Verify = true

	env.E.Go("app", func(p *sim.Proc) {
		gids.RunIterations(p, 2) // panics internally on feature mismatch
		camTr.RunIterations(p, 2)
	})
	env.Run()
}
