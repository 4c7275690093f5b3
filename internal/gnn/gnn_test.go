package gnn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

func TestFeatBytesRounding(t *testing.T) {
	cases := []struct {
		dim  int
		want int64
	}{{128, 512}, {1024, 4096}, {100, 512}, {129, 1024}}
	for _, c := range cases {
		d := Dataset{FeatDim: c.dim}
		if got := d.FeatBytes(); got != c.want {
			t.Errorf("FeatBytes(dim=%d) = %d, want %d", c.dim, got, c.want)
		}
	}
}

func TestPaperDatasets(t *testing.T) {
	p := Paper100M()
	if p.NumNodes != 111_059_956 || p.FeatDim != 128 {
		t.Fatal("Paper100M constants wrong")
	}
	i := IGBFull()
	if i.NumNodes != 269_364_174 || i.FeatDim != 1024 {
		t.Fatal("IGB-full constants wrong")
	}
	if i.FeatBytes() != 4096 || p.FeatBytes() != 512 {
		t.Fatal("feature row sizes wrong")
	}
}

func TestNeighborDeterministicInRange(t *testing.T) {
	d := Paper100M().Scaled(10000)
	f := func(v uint64, i uint8) bool {
		a := d.Neighbor(v%d.NumNodes, int(i))
		b := d.Neighbor(v%d.NumNodes, int(i))
		return a == b && a < d.NumNodes
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureRowDistinct(t *testing.T) {
	d := Paper100M()
	a := make([]byte, d.FeatBytes())
	b := make([]byte, d.FeatBytes())
	d.FeatureRow(1, a)
	d.FeatureRow(2, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different nodes produced identical feature rows")
	}
}

func TestSampleBatchUniqueAndDeterministic(t *testing.T) {
	d := Paper100M().Scaled(100000)
	cfg := DefaultTrainConfig()
	cfg.Batch = 64
	cfg.Fanouts = []int{5, 3}
	a := SampleBatch(d, cfg, 3)
	b := SampleBatch(d, cfg, 3)
	if len(a) != len(b) {
		t.Fatal("same iteration sampled different sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	seen := map[uint64]struct{}{}
	for _, v := range a {
		if v >= d.NumNodes {
			t.Fatal("sampled node out of range")
		}
		if _, dup := seen[v]; dup {
			t.Fatal("duplicate in sampled set")
		}
		seen[v] = struct{}{}
	}
	if len(a) < cfg.Batch {
		t.Fatalf("sampled %d < batch %d", len(a), cfg.Batch)
	}
	c := SampleBatch(d, cfg, 4)
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different iterations sampled identical sets")
		}
	}
}

func TestComputeOrderingGATHeaviest(t *testing.T) {
	cfg := DefaultTrainConfig()
	for _, d := range []Dataset{Paper100M(), IGBFull()} {
		gcn := cfg.ComputeTimePerNode(GCN, d)
		gat := cfg.ComputeTimePerNode(GAT, d)
		sage := cfg.ComputeTimePerNode(GraphSAGE, d)
		if !(gat > gcn && gcn > sage) {
			t.Errorf("%s: compute order wrong: gat=%v gcn=%v sage=%v", d.Name, gat, gcn, sage)
		}
	}
}

func TestEffRateBoostForWideFeatures(t *testing.T) {
	cfg := DefaultTrainConfig()
	if cfg.EffRate(IGBFull()) <= cfg.EffRate(Paper100M()) {
		t.Fatal("wide features should raise effective compute rate")
	}
}

// smallSetup builds a small verifiable training environment.
func smallSetup(t *testing.T) (envG, envC *platform.Env, d Dataset, cfg TrainConfig) {
	t.Helper()
	d = Paper100M().Scaled(4000)
	cfg = DefaultTrainConfig()
	cfg.Batch = 32
	cfg.Fanouts = []int{4, 2}
	envG = platform.New(platform.Options{SSDs: 4})
	envC = platform.New(platform.Options{SSDs: 4})
	PrepopulateFeatures(envG, d)
	PrepopulateFeatures(envC, d)
	return
}

func TestGIDSTrainerVerifiedRoundTrip(t *testing.T) {
	env, _, d, cfg := smallSetup(t)
	sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
	tr := NewGIDSTrainer(env, d, GCN, cfg, sys)
	tr.Verify = true
	var b Breakdown
	env.E.Go("train", func(p *sim.Proc) {
		b = tr.RunIterations(p, 2)
	})
	env.Run()
	if b.Iters != 2 || b.Nodes == 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Sample == 0 || b.Extract == 0 || b.Train == 0 {
		t.Fatalf("missing stages: %+v", b)
	}
}

func TestCAMTrainerVerifiedRoundTrip(t *testing.T) {
	_, env, d, cfg := smallSetup(t)
	mgr := cam.New(env.E, CAMConfig(len(env.Devs), d, cfg), env.GPU, env.HM, env.Space, env.Fab, env.Devs)
	tr := NewCAMTrainer(env, d, GCN, cfg, mgr)
	tr.Verify = true
	var b Breakdown
	env.E.Go("train", func(p *sim.Proc) {
		b = tr.RunIterations(p, 3)
	})
	env.Run()
	if b.Iters != 3 || b.Nodes == 0 {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestCAMFasterThanGIDS(t *testing.T) {
	d := Paper100M().Scaled(200000)
	cfg := DefaultTrainConfig()
	cfg.Batch = 128
	cfg.Fanouts = []int{10, 5}

	envG := platform.New(platform.Options{SSDs: 12})
	sys := bam.New(envG.E, bam.DefaultConfig(), envG.GPU, envG.Devs)
	trG := NewGIDSTrainer(envG, d, GCN, cfg, sys)
	var bG Breakdown
	envG.E.Go("t", func(p *sim.Proc) { bG = trG.RunIterations(p, 3) })
	envG.Run()

	envC := platform.New(platform.Options{SSDs: 12})
	mgr := cam.New(envC.E, CAMConfig(len(envC.Devs), d, cfg), envC.GPU, envC.HM, envC.Space, envC.Fab, envC.Devs)
	trC := NewCAMTrainer(envC, d, GCN, cfg, mgr)
	var bC Breakdown
	envC.E.Go("t", func(p *sim.Proc) { bC = trC.RunIterations(p, 4) })
	envC.Run()

	perIterG := float64(bG.Total) / float64(bG.Iters)
	perIterC := float64(bC.Total) / float64(bC.Iters)
	speedup := perIterG / perIterC
	if speedup < 1.15 {
		t.Fatalf("CAM speedup = %.2fx over GIDS, expected > 1.15x (overlap)", speedup)
	}
	if speedup > 2.05 {
		t.Fatalf("CAM speedup = %.2fx — exceeds the theoretical overlap bound", speedup)
	}
	// The pipeline stall must be far below GIDS's serial extract time.
	if bC.Extract >= bG.Extract {
		t.Fatalf("CAM I/O stall %v not reduced vs GIDS extract %v", bC.Extract, bG.Extract)
	}
}

func TestGIDSExtractFractionMatchesFig1(t *testing.T) {
	// On the real (unscaled-node-behavior) ratios, GIDS spends 40-65 % in
	// feature extraction. Use a large scaled graph so dedup behaves.
	d := Paper100M().Scaled(1000000)
	cfg := DefaultTrainConfig()
	cfg.Batch = 128
	env := platform.New(platform.Options{SSDs: 12})
	sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
	for _, m := range Models() {
		tr := NewGIDSTrainer(env, d, m, cfg, sys)
		var b Breakdown
		env.E.Go("t", func(p *sim.Proc) { b = tr.RunIterations(p, 1) })
		env.Run()
		_, extract, _ := b.Fractions()
		if extract < 0.40 || extract > 0.70 {
			t.Errorf("%s: extract fraction = %.2f, want 0.40-0.70 (Fig 1)", m.Name, extract)
		}
	}
}
