// Package harness contains one runnable experiment per table and figure of
// the paper's evaluation (§IV). Each experiment builds its own simulated
// platform, drives the workload, and renders the same rows/series the
// paper reports. `cambench -exp <id>` runs them from the command line.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"camsim/internal/fault"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

// RunConfig selects the experiment scale.
type RunConfig struct {
	// Quick shrinks sweeps and workload sizes for CI; Full (-quick=false)
	// is paper scale.
	Quick bool
	// Faults is the fault plan every machine of the run is built with
	// (the -faults flag of cambench and camkv); nil runs fault-free. A
	// machine whose platform.Options names its own plan keeps that one.
	Faults *fault.Plan

	// acct collects per-run virtual-time accounting and the engines to
	// tear down when the experiment finishes. The registry wrapper
	// installs a fresh one per Run call, which is what makes concurrent
	// experiment runs (RunAll) safe: there is no shared mutable state
	// between two in-flight experiments.
	acct *runAcct
	// tieSeed, when not 0, runs every engine of the experiment with its
	// simultaneous events in a seeded permutation of their insertion order
	// (sim.Engine.PermuteTies, test binaries only). Only the claim table's
	// tests set it.
	tieSeed uint64
}

// runAcct is one experiment run's bookkeeping.
type runAcct struct {
	elapsed int64 // summed virtual ns across every engine run
	envs    []*platform.Env
}

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Figs   []*metrics.Figure
	Notes  []string
	// SimElapsed is the total virtual time simulated while producing the
	// result, summed across every engine the experiment drove (experiments
	// often build several platforms per data point, so this is a sum of
	// simulated spans, not one clock reading). cambench reports it next to
	// its wall-clock number.
	SimElapsed sim.Time
	// Events is the event-queue traffic of those same engines, summed: how
	// many events the result cost and which queue lanes carried them.
	Events sim.QueueStats
}

// String renders everything.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, f := range r.Figs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Value returns the number with the given name: key.row.column for a table
// cell, key.x.series for a figure point (metrics.Table.Values). A name that
// is unknown, or that two numbers share, is an error listing the names that
// do exist.
func (r *Result) Value(name string) (float64, error) {
	var names []string
	v, hits := 0.0, 0
	each := func(n string, x float64) {
		names = append(names, n)
		if n == name {
			v, hits = x, hits+1
		}
	}
	for _, t := range r.Tables {
		t.Values(each)
	}
	for _, f := range r.Figs {
		f.Values(each)
	}
	if hits != 1 {
		return 0, fmt.Errorf("%s has %d values named %q; it has %q", r.ID, hits, name, names)
	}
	return v, nil
}

// Series returns the y values of the figure series named key.series.
func (r *Result) Series(name string) ([]float64, error) {
	var names []string
	for _, f := range r.Figs {
		for _, s := range f.Series {
			if f.Key+"."+s.Name == name {
				return s.Y, nil
			}
			names = append(names, f.Key+"."+s.Name)
		}
	}
	return nil, fmt.Errorf("%s has no series %q; it has %q", r.ID, name, names)
}

// Experiment is a registered, runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) *Result
}

var registry = map[string]Experiment{}

// newEnv builds one of the run's machines from o, with the run's fault plan
// when o names none. Experiment code should call this instead of
// platform.New directly.
func (cfg RunConfig) newEnv(o platform.Options) *platform.Env {
	if o.Faults == nil {
		o.Faults = cfg.Faults
	}
	return platform.New(o)
}

// runEnv drives env to quiescence, crediting the simulated span to the
// running experiment's virtual-time accounting and registering the engine
// for teardown when the experiment completes. Experiment code should call
// this instead of env.Run directly.
func runEnv(cfg RunConfig, env *platform.Env) sim.Time {
	if cfg.tieSeed != 0 {
		env.E.PermuteTies(cfg.tieSeed)
	}
	end := env.Run()
	if cfg.acct != nil {
		cfg.acct.elapsed += int64(end)
		cfg.acct.envs = append(cfg.acct.envs, env)
	}
	return end
}

func register(id, title string, run func(cfg RunConfig) *Result) {
	if _, dup := registry[id]; dup {
		panic("harness: duplicate experiment " + id)
	}
	wrapped := func(cfg RunConfig) *Result {
		acct := &runAcct{}
		cfg.acct = acct
		r := run(cfg)
		r.SimElapsed = sim.Time(acct.elapsed)
		// Experiments reach quiescence with controller and poller
		// processes still blocked on doorbells that will never ring;
		// releasing them here is what lets a worker pool run thousands
		// of experiment engines without accumulating goroutines.
		for _, env := range acct.envs {
			r.Events.Add(env.E.QueueStats())
			env.E.Shutdown()
		}
		return r
	}
	registry[id] = Experiment{ID: id, Title: title, Run: wrapped}
}

// Get looks an experiment up by id (e.g. "fig8").
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return idLess(ids[i], ids[j]) })
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// idLess orders fig1 < fig2 < ... < fig10 < tab1 (numeric-aware).
func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitID(s string) (prefix string, n int) {
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	prefix = s[:i]
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = n*10 + int(s[i]-'0')
	}
	return
}
