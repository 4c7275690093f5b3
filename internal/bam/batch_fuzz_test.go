package bam

import (
	"bytes"
	"encoding/binary"
	"testing"

	"camsim/internal/gpu"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// FuzzBatchRoundTrip round-trips arbitrary block lists through the batch
// machine under fuzzed device count, block size and placement, like the cam
// fuzzer of the same name. Every distinct block scattered must gather back
// byte-identical wherever the list names it, with one NVMe command per block
// and identical destination bytes on the lazy and eager data planes.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}, uint16(8), uint8(2), uint8(3))
	f.Add(make([]byte, 64), uint16(4), uint8(0), uint8(3)) // all-zero ids: duplicates
	f.Add([]byte{1, 2, 3}, uint16(8), uint8(5), uint8(0))  // trailing partial word
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, uint16(2), uint8(11), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, layout uint16, ndevRaw, bbRaw uint8) {
		count := min(len(data)/8, 32)
		if count == 0 {
			return
		}
		blocks := make([]uint64, count)
		for i := range blocks {
			blocks[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		ndev := int(ndevRaw%12) + 1
		blockBytes := int64(512) << (bbRaw % 9) // 512 B .. 128 KiB
		var dsts [2][]byte
		for mode, eager := range []bool{false, true} {
			prev := mem.DefaultEager()
			mem.SetDefaultEager(eager)
			dsts[mode] = roundTripBaM(t, blocks, ndev, blockBytes, layout)
			mem.SetDefaultEager(prev)
		}
		if !bytes.Equal(dsts[0], dsts[1]) {
			t.Fatalf("lazy and eager destination bytes differ for blocks %v", blocks)
		}
	})
}

// placement gives n blocks their buffer offsets and the offs argument that
// asks Start for them: the stride a range batch implies (nil), or — when
// bit 3 of layout is set, which splits the retained seeds between the two
// forms — a rotation of it, started as a list batch.
func placement(n int, blockBytes int64, layout uint16) (offs, arg []int64) {
	offs = make([]int64, n)
	rot := 0
	if layout&8 != 0 {
		rot, arg = int(layout)%n, offs
	}
	for i := range offs {
		offs[i] = int64((i+rot)%n) * blockBytes
	}
	return offs, arg
}

// roundTripBaM scatters each distinct block of the list once (a batch
// writing one block twice would leave the winner to command order), gathers
// the list back as given — duplicates included — and returns the
// destination bytes.
func roundTripBaM(t *testing.T, blocks []uint64, ndev int, blockBytes int64, layout uint16) []byte {
	r := newRig(ndev, DefaultConfig())
	arr := r.sys.NewArray(blockBytes)
	capacity := uint64(r.devs[0].Config().CapacityBytes/blockBytes) * uint64(ndev)
	ids := make([]uint64, len(blocks))
	srcIdx := make(map[uint64]int)
	var uniq []uint64
	for i, b := range blocks {
		ids[i] = b % capacity
		if _, ok := srcIdx[ids[i]]; !ok {
			srcIdx[ids[i]] = len(uniq)
			uniq = append(uniq, ids[i])
		}
	}
	src := r.g.Alloc("src", int64(len(uniq))*blockBytes)
	dst := r.g.Alloc("dst", int64(len(ids))*blockBytes)
	rng := sim.NewRNG(37)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	srcOffs, srcArg := placement(len(uniq), blockBytes, layout)
	dstOffs, dstArg := placement(len(ids), blockBytes, layout)
	run := func(p *sim.Proc, op nvme.Opcode, ids []uint64, buf *gpu.Buffer, arg []int64) {
		ss := r.sys.syncFree.Get()
		ss.done.Init(r.e, "bam.sync")
		arr.Start(op, ids, buf, 0, arg, ss)
		p.Wait(&ss.done)
		if ss.errs != 0 {
			t.Errorf("%d of %d blocks failed", ss.errs, len(ids))
		}
	}
	r.e.Go("kernel", func(p *sim.Proc) {
		run(p, nvme.OpWrite, uniq, src, srcArg)
		run(p, nvme.OpRead, ids, dst, dstArg)
	})
	r.e.Run()
	for i, id := range ids {
		want := src.Bytes()[srcOffs[srcIdx[id]]:][:blockBytes]
		if got := dst.Bytes()[dstOffs[i]:][:blockBytes]; !bytes.Equal(got, want) {
			t.Fatalf("block %d (entry %d of %v, layout %d) read back corrupt", id, i, ids, layout)
		}
	}
	var cmds uint64
	for _, d := range r.devs {
		cmds += d.Stats().ReadCmds + d.Stats().WriteCmds
	}
	if want := uint64(len(uniq) + len(ids)); cmds != want {
		t.Fatalf("%d NVMe commands for %d blocks, want one each", cmds, want)
	}
	return append([]byte(nil), dst.Bytes()...)
}
