package cam

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"camsim/internal/mem"
	"camsim/internal/sim"
)

// packBlocks encodes block ids the way the CAM request ring carries them:
// 8 bytes each, little-endian.
func packBlocks(blocks ...uint64) []byte {
	out := make([]byte, 8*len(blocks))
	for i, b := range blocks {
		binary.LittleEndian.PutUint64(out[i*8:], b)
	}
	return out
}

// FuzzBatchRoundTrip round-trips arbitrary block lists through the one batch
// path under fuzzed device count, block size and placement (the seed corpus
// dates from the command-merging run detector the target used to drive; it is
// kept because its shapes — stripe runs, gaps, duplicates, wraparound ids —
// are the ones a per-block dispatch loop must not care about). Whatever the input, every distinct block written must read back
// byte-identical wherever the list names it, nothing may fail, every block
// is its own NVMe command, and the lazy and eager data planes must produce
// the same destination bytes.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(packBlocks(0, 4, 8, 12, 16), uint16(8), uint8(3), uint8(3))        // one stripe run, 4 devs
	f.Add(packBlocks(0, 4, 8, 13, 17), uint16(8), uint8(3), uint8(3))        // gap mid-list
	f.Add(packBlocks(0, 1, 2, 3), uint16(8), uint8(3), uint8(3))             // one block per device
	f.Add(packBlocks(7, 7, 7), uint16(4), uint8(0), uint8(3))                // duplicates, 1 dev
	f.Add(packBlocks(5), uint16(0), uint8(11), uint8(0))                     // single block
	f.Add(packBlocks(0, 12, 24, 36, 48, 60), uint16(2), uint8(11), uint8(8)) // 128 KiB blocks
	f.Add(packBlocks(math.MaxUint64, 2, 5), uint16(8), uint8(2), uint8(3))   // wraparound ids
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
			dsts[mode] = roundTripCAM(t, blocks, ndev, blockBytes, layout)
			mem.SetDefaultEager(prev)
		}
		if !bytes.Equal(dsts[0], dsts[1]) {
			t.Fatalf("lazy and eager destination bytes differ for blocks %v", blocks)
		}
	})
}

// placement gives n blocks their buffer offsets and the offs argument that
// asks publish for them: the stride a range batch implies (nil), or — when
// bit 3 of layout is set, which splits the retained seeds between the two
// forms — a rotation of it, published as a list batch.
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

// roundTripCAM writes each distinct block of the list once (a batch writing
// one block twice would leave the winner to command order), reads the list
// back as given — duplicates included — and returns the destination bytes.
func roundTripCAM(t *testing.T, blocks []uint64, ndev int, blockBytes int64, layout uint16) []byte {
	cfg := DefaultConfig(ndev)
	cfg.BlockBytes = blockBytes
	r := newRig(ndev, cfg)
	ids := make([]uint64, len(blocks))
	srcIdx := make(map[uint64]int)
	var uniq []uint64
	for i, b := range blocks {
		ids[i] = b % r.m.CapacityBlocks()
		if _, ok := srcIdx[ids[i]]; !ok {
			srcIdx[ids[i]] = len(uniq)
			uniq = append(uniq, ids[i])
		}
	}
	src := r.m.Alloc("src", int64(len(uniq))*blockBytes)
	dst := r.m.Alloc("dst", int64(len(ids))*blockBytes)
	rng := sim.NewRNG(31)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	srcOffs, srcArg := placement(len(uniq), blockBytes, layout)
	dstOffs, dstArg := placement(len(ids), blockBytes, layout)
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.Synchronize(p, r.m.publish(p, OpWriteBack, uniq, src, 0, srcArg))
		r.m.Synchronize(p, r.m.publish(p, OpPrefetch, ids, dst, 0, dstArg))
	})
	r.e.Run()
	for i, id := range ids {
		want := src.Bytes()[srcOffs[srcIdx[id]]:][:blockBytes]
		if got := dst.Bytes()[dstOffs[i]:][:blockBytes]; !bytes.Equal(got, want) {
			t.Fatalf("block %d (entry %d of %v, layout %d) read back corrupt", id, i, ids, layout)
		}
	}
	st := r.m.Stats()
	if st.FailedRequests != 0 || st.Commands != st.Requests {
		t.Fatalf("%d requests: %d failed, %d commands (want 0 and one per request)", st.Requests, st.FailedRequests, st.Commands)
	}
	return append([]byte(nil), dst.Bytes()...)
}
