package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// modelMap is the trivially-correct reference for Map: one state word per
// block, recounted on demand. The quick properties drive Map and the
// model through identical transition streams and demand agreement.
type modelMap struct {
	layers, perLayer int
	st               map[[2]int]BlockState
	frame            map[[2]int]int32
	spilledOnce      map[[2]int]bool // an SSD copy exists, so DropClean is legal
}

func newModelMap(layers, perLayer int) *modelMap {
	return &modelMap{layers: layers, perLayer: perLayer,
		st: map[[2]int]BlockState{}, frame: map[[2]int]int32{},
		spilledOnce: map[[2]int]bool{}}
}

func (m *modelMap) state(l, b int) BlockState { return m.st[[2]int{l, b}] }

func (m *modelMap) set(l, b int, s BlockState, f int32) {
	m.st[[2]int{l, b}] = s
	m.frame[[2]int{l, b}] = f
}

// step applies one random-but-legal transition to both map and model,
// returning false when the drawn block has no legal move this round.
func step(r *rand.Rand, mp *Map, model *modelMap, nextFrame *int32) bool {
	l := r.Intn(mp.Layers())
	b := r.Intn(mp.PerLayer())
	switch model.state(l, b) {
	case StateUnwritten:
		f := *nextFrame
		*nextFrame++
		mp.Create(l, b, f)
		model.set(l, b, StateResident, f)
	case StateResident:
		if model.spilledOnce[[2]int{l, b}] && r.Intn(2) == 0 {
			// Blocks are immutable after creation, so a block spilled once
			// has a current SSD copy forever and may be dropped clean.
			mp.DropClean(l, b)
			model.set(l, b, StateSpilled, -1)
		} else {
			mp.BeginSpill(l, b)
			model.set(l, b, StateSpilling, model.frame[[2]int{l, b}])
		}
	case StateSpilling:
		mp.EndSpill(l, b)
		model.set(l, b, StateSpilled, -1)
		model.spilledOnce[[2]int{l, b}] = true
	case StateSpilled:
		f := *nextFrame
		*nextFrame++
		mp.BeginFill(l, b, f)
		model.set(l, b, StateFilling, f)
	case StateFilling:
		mp.EndFill(l, b)
		model.set(l, b, StateResident, model.frame[[2]int{l, b}])
	default:
		return false
	}
	return true
}

// TestMapQuickModelEquivalence: arbitrary legal transition streams keep
// Map in exact agreement with the naive model — states, frames, counters,
// and the partition invariant (resident/in-flight/spilled/unwritten are
// mutually exclusive and exhaustive) all hold at every step.
func TestMapQuickModelEquivalence(t *testing.T) {
	prop := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		layers, perLayer := 1+r.Intn(3), 1+r.Intn(8)
		mp := NewMap(layers, perLayer)
		model := newModelMap(layers, perLayer)
		nextFrame := int32(0)
		for i := 0; i < int(steps); i++ {
			step(r, mp, model, &nextFrame)
			if err := mp.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		var counts [numStates]int
		for l := 0; l < layers; l++ {
			for b := 0; b < perLayer; b++ {
				ms := model.state(l, b)
				counts[ms]++
				if got := mp.State(l, b); got != ms {
					t.Logf("seed %d: (%d,%d) state %v, model %v", seed, l, b, got, ms)
					return false
				}
				holds := ms == StateResident || ms == StateFilling || ms == StateSpilling
				wantFrame := int32(-1)
				if holds {
					wantFrame = model.frame[[2]int{l, b}]
				}
				if got := mp.Frame(l, b); got != wantFrame {
					t.Logf("seed %d: (%d,%d) frame %d, model %d", seed, l, b, got, wantFrame)
					return false
				}
			}
		}
		if mp.Counts() != counts {
			t.Logf("seed %d: counts %v, model %v", seed, mp.Counts(), counts)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestMapQuickNoDualResidency: on any legal walk, a block is never
// simultaneously frame-holding and on-SSD-only — the "no block both
// resident and in flight to nowhere" half of the partition property —
// and in-flight states always hold the transfer's frame.
func TestMapQuickNoDualResidency(t *testing.T) {
	prop := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mp := NewMap(2, 6)
		model := newModelMap(2, 6)
		nextFrame := int32(0)
		for i := 0; i < int(steps); i++ {
			step(r, mp, model, &nextFrame)
		}
		for l := 0; l < 2; l++ {
			for b := 0; b < 6; b++ {
				st, f := mp.State(l, b), mp.Frame(l, b)
				holdsFrame := f >= 0
				switch st {
				case StateResident, StateFilling, StateSpilling:
					if !holdsFrame {
						return false
					}
				case StateUnwritten, StateSpilled:
					if holdsFrame {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestMapIllegalTransitionsPanic: every transition out of a state it is
// not legal from must panic — the serving loop relies on the map to catch
// its own logic bugs at the first wrong edge.
func TestMapIllegalTransitionsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	m := NewMap(1, 4)
	mustPanic("spill unwritten", func() { m.BeginSpill(0, 0) })
	mustPanic("fill unwritten", func() { m.BeginFill(0, 0, 1) })
	mustPanic("end-fill unwritten", func() { m.EndFill(0, 0) })
	mustPanic("drop unwritten", func() { m.DropClean(0, 0) })
	m.Create(0, 0, 3)
	mustPanic("double create", func() { m.Create(0, 0, 4) })
	mustPanic("end-spill resident", func() { m.EndSpill(0, 0) })
	m.BeginSpill(0, 0)
	mustPanic("spill mid-spill", func() { m.BeginSpill(0, 0) })
	m.EndSpill(0, 0)
	mustPanic("create spilled", func() { m.Create(0, 0, 5) })
	mustPanic("fill needs frame", func() { m.BeginFill(0, 0, -1) })
	m.BeginFill(0, 0, 6)
	mustPanic("fill mid-fill", func() { m.BeginFill(0, 0, 7) })
	mustPanic("out of range", func() { m.State(1, 0) })
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
