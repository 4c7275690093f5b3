package harness

import (
	"fmt"

	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
)

func init() {
	register("abl-shard", "Ablation: sharded DES — multi-host cluster with lookahead exchange (extension beyond the paper)", runAblShard)
}

// runAblShard demonstrates the sharded engine end to end: a cluster of
// storage hosts, each a sim.Shard carrying a full platform Env (fabric,
// host memory, SSDs, an SPDK driver) built against the shard's engine, so
// every device on a host declares affinity to that host's shard. The hosts
// run a pipelined ring workload — host i starts batch b only after the
// previous host's batch-b token crosses the inter-host network — so the
// cross-shard edges carry real causality, not just statistics.
//
// The lookahead of each ring edge is physical: the uncontended transfer
// time of the smallest message (one token) on the modeled interconnect,
// via Link.XferTime. Conservative windowed execution (sim.Cluster) makes
// the rendered output independent of the order the shards run in.
func runAblShard(cfg RunConfig) *Result {
	r := &Result{ID: "abl-shard", Title: "Sharded DES: pipelined multi-host ring (conservative lookahead exchange)"}

	const hosts = 4
	ssdsPerHost, batches, perBatch := 3, 16, 256
	if cfg.Quick {
		ssdsPerHost, batches, perBatch = 2, 6, 128
	}
	const blockBytes = 4096
	const tokenBytes = 64 // ring token: one cache line of control traffic

	c := sim.NewCluster()
	shards := make([]*sim.Shard, hosts)
	for i := range shards {
		shards[i] = c.NewShard(fmt.Sprintf("host%d", i))
	}

	type host struct {
		env *platform.Env
		drv *spdk.Driver
		net *sim.Link // outgoing inter-host interconnect (RDMA-class)
		tok []*sim.Signal
	}
	hs := make([]*host, hosts)
	for i, sh := range shards {
		env := platform.New(platform.Options{
			Engine: sh.Engine(),
			SSDs:   ssdsPerHost,
			Seed:   uint64(i + 1),
		})
		h := &host{
			env: env,
			drv: spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, 1),
			// 100 Gb/s-class host interconnect with a fixed per-message
			// overhead; its uncontended token time is the edge lookahead.
			net: env.E.NewLink(fmt.Sprintf("net%d", i), 12.5e9, 600*sim.Nanosecond),
			tok: make([]*sim.Signal, batches+1),
		}
		for b := range h.tok {
			h.tok[b] = env.E.NewSignal(fmt.Sprintf("host%d.tok%d", i, b))
		}
		hs[i] = h
	}

	// Ring edges host i -> host (i+1)%hosts, lookahead derived from the
	// interconnect: nothing crosses faster than an uncontended token.
	links := make([]*sim.CrossLink, hosts)
	for i := range shards {
		next := (i + 1) % hosts
		links[i] = c.Connect(shards[i], shards[next],
			fmt.Sprintf("ring%d-%d", i, next), hs[i].net.XferTime(tokenBytes))
	}

	tokensSent := make([]int, hosts)
	for i := range hs {
		i := i
		h := hs[i]
		rng := sim.NewRNG(uint64(100 + i))
		span := h.env.Devs[0].Store().CapacityLBAs() / 8
		if span > 1<<20 {
			span = 1 << 20
		}
		buf := h.env.HM.Alloc(fmt.Sprintf("stage%d", i), blockBytes)
		h.drv.Start()
		h.env.E.Go(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			for b := 0; b < batches; b++ {
				if i != 0 || b != 0 {
					// Wait for the predecessor's batch-b token (host 0
					// waits on the ring's wrap-around from the last host).
					p.Wait(h.tok[b])
				}
				outstanding := perBatch
				done := h.env.E.NewSignal(fmt.Sprintf("host%d.batch%d", i, b))
				for q := 0; q < perBatch; q++ {
					req := &spdk.Request{
						Op:   nvme.OpRead,
						Dev:  q % ssdsPerHost,
						SLBA: uint64(rng.Int63n(int64(span))) * 8,
						NLB:  blockBytes / nvme.LBASize,
						Addr: buf.Addr,
					}
					req.OnDone = func() {
						outstanding--
						if outstanding == 0 {
							done.Fire()
						}
					}
					h.drv.Submit(req)
				}
				p.Wait(done)
				// Pass the baton: book the token on the interconnect (its
				// arrival includes queueing, never earlier than the edge
				// lookahead) and deliver it across the shard boundary.
				next := (i + 1) % hosts
				tb := b
				if next == 0 {
					tb = b + 1 // ring wrap-around advances the round
				}
				if tb <= batches {
					dst := hs[next].tok[tb]
					arrival := h.net.Reserve(tokenBytes)
					links[i].Send(arrival-p.Now(), func() { dst.Fire() })
					tokensSent[i]++
				}
			}
		})
	}

	// Cluster.Run drives the shard engines directly (there is no env.Run
	// here), so launch the device controllers explicitly first.
	for _, h := range hs {
		h.env.StartDevices()
	}
	c.Run()

	t := metrics.NewTable("abl-shard",
		fmt.Sprintf("%d hosts x %d SSDs, %d-batch ring pipeline (%d x 4KB reads per batch)",
			hosts, ssdsPerHost, batches, perBatch),
		"host", "reads", "GB/s", "tokens out", "lookahead", "end time")
	var totalReads uint64
	var makespan sim.Time
	for i, h := range hs {
		var reads uint64
		for _, d := range h.env.Devs {
			reads += d.Stats().ReadCmds
		}
		totalReads += reads
		end := h.env.E.Now()
		cfg.credit(h.env, end)
		if end > makespan {
			makespan = end
		}
		t.AddRow(fmt.Sprintf("host%d", i), reads,
			float64(reads)*blockBytes/end.Seconds()/1e9,
			tokensSent[i], links[i].Lookahead().String(), end.String())
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		fmt.Sprintf("aggregate: %d reads, makespan %s, %.2f GB/s across the cluster",
			totalReads, makespan, float64(totalReads)*blockBytes/makespan.Seconds()/1e9),
		fmt.Sprintf("conservative windows: every shard may run %s ahead of the slowest (min edge lookahead)", c.MinLookahead()),
		"output does not depend on the order shards run within a window: windows + sorted boundary exchange are schedule-independent")
	return r
}
