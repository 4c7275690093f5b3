package harness

import (
	"strings"
	"testing"

	"camsim/internal/nvme"
	"camsim/internal/platform"
)

func run(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e.Run(RunConfig{Quick: true})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10a", "fig10bc",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6",
		"abl-dyncores", "abl-batch", "abl-outstanding", "abl-ftl", "abl-cache", "abl-multigpu", "abl-fanin",
		"abl-faults", "kv",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(All()), len(want), ids())
	}
}

// ids lists the registered experiment ids in All's order.
func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

func TestIDOrdering(t *testing.T) {
	ids := ids()
	// fig2 must come before fig10a (numeric-aware ordering).
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if pos["fig2"] > pos["fig10a"] {
		t.Fatalf("ordering wrong: %v", ids)
	}
	if pos["fig16"] > pos["tab1"] {
		t.Fatalf("figs should precede tabs: %v", ids)
	}
}

// TestFig8aEventMix pins the event traffic on the paper's headline point —
// CAM, 12 SSDs, 4 KiB random reads: 1.16 events per I/O (one device
// command event, the rest reactor runs, idle iterations and wakes) and
// next to nothing past the 1.05 ms horizon. The calendar geometry (DESIGN.md
// §6) was derived from the mix before each SSD command became one event
// (3.56 per I/O; 5.18 while the reactor paid one event per submit and per
// completion); ROADMAP item 5(c) re-derives it from this one. A model
// change that moves either number should re-derive the geometry, not
// inherit it.
func TestFig8aEventMix(t *testing.T) {
	_, env, mgr := camThroughput(RunConfig{Quick: true}, 12, nvme.OpRead, 4096, 0, 2, platform.Options{})
	defer env.E.Shutdown()
	ev := env.E.QueueStats()
	reqs := mgr.Stats().Requests
	if reqs == 0 || ev.Dispatched == 0 {
		t.Fatalf("nothing ran: %d requests, %+v", reqs, ev)
	}
	if perIO := float64(ev.Dispatched) / float64(reqs); perIO < 1.1 || perIO > 1.25 {
		t.Errorf("%d events dispatched for %d requests = %.2f per I/O, want 1.16 (1.1–1.25)", ev.Dispatched, reqs, perIO)
	}
	if share := float64(ev.OverflowPushes) / float64(ev.Pushes()); share >= 0.02 {
		t.Errorf("%d of %d pushes (%.1f%%) landed past the calendar horizon, want < 2%%",
			ev.OverflowPushes, ev.Pushes(), 100*share)
	}
	if ev.Pushes() != ev.Dispatched+ev.DeadTimers+uint64(env.E.Pending()) {
		t.Errorf("counters do not add up: %+v with %d pending", ev, env.E.Pending())
	}
	t.Logf("%d requests: %+v", reqs, ev)
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "tab3", "tab4", "tab5", "tab6"} {
		r := run(t, id)
		out := r.String()
		if len(out) < 50 {
			t.Errorf("%s output suspiciously short:\n%s", id, out)
		}
	}
}

func TestResultStringContainsEverything(t *testing.T) {
	r := run(t, "fig4")
	s := r.String()
	for _, want := range []string{"fig4", "SM", "BaM"} {
		if !strings.Contains(s, want) {
			t.Errorf("result output missing %q:\n%s", want, s)
		}
	}
}

func TestAblationsRunQuick(t *testing.T) {
	ran := 0
	for _, id := range ids() {
		if !strings.HasPrefix(id, "abl-") {
			continue
		}
		ran++
		r := run(t, id)
		if len(r.Tables)+len(r.Figs) == 0 {
			t.Errorf("%s produced no output", id)
		}
		// Every engine an experiment simulates on is registered with the
		// run's accounting.
		if r.SimElapsed > 0 && r.Events.Dispatched == 0 {
			t.Errorf("%s simulated %s but reports no dispatched events", id, r.SimElapsed)
		}
	}
	if ran == 0 {
		t.Error("no abl-* experiment is registered")
	}
}
