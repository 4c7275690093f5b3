package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func failedFrac(res *result) float64 {
	return ratio(float64(res.Failed), float64(res.Attempted))
}

// printReport prints one workload's metrics by name with units, directions,
// bounds and the spread of the reps behind each host-side value.
func printReport(out io.Writer, w workload, res *result, trace bool) {
	fmt.Fprintf(out, "\n== %s (seed %d) ==\n%s\n", w.name, res.Seed, w.why)
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	if !trace {
		fmt.Fprintln(tw, "end-to-end\tvalue\tunit\tbetter\tbound\treps: median\tq1\tq3\tmin\tn")
		for _, m := range endToEnd() {
			s, ok := res.EndToEnd[m.name]
			if !ok {
				continue // does not apply to this workload
			}
			side := ""
			if m.model {
				side = " (model, exact)"
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%.0f%%\t%.6g\t%.6g\t%.6g\t%.6g\t%d%s\n",
				m.name, s.Value, m.unit, m.better, 100*m.bound, s.Median, s.Q1, s.Q3, s.Min, s.N, side)
		}
		fmt.Fprintf(tw, "failed_frac\t%.6g\tfrac\tlower\t0%%\t\t\t\t\t%d of %d operations\n",
			failedFrac(res), res.Failed, res.Attempted)
	}
	fmt.Fprintln(tw, "per-layer\tvalue\tunit")
	for _, m := range perLayer() {
		v, ok := res.PerLayer[m.name]
		if !ok || (v == 0 && !trace) {
			continue // untraced runs list only the counts and spans that apply
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.name, v, m.unit)
	}
	tw.Flush()
	if trace {
		sum := 0.0
		for _, l := range layers {
			sum += res.PerLayer[l+".cpu_share"]
		}
		fmt.Fprintf(out, "cpu shares sum to %.4f\n", sum)
	}
	if res.Digest != "" {
		fmt.Fprintf(out, "output sha256 %s (identical across reps)\n", res.Digest)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(out, "FAIL: %s\n", e)
	}
	if res.Failed > 0 {
		fmt.Fprintf(out, "FAIL: %d of %d operations failed verification\n", res.Failed, res.Attempted)
	}
}

// runAA runs the untraced set twice and checks that the two agree: host
// metrics within their bounds, model-side metrics and counts exactly.
func runAA(selected []workload, seed uint64, seconds float64) bool {
	ok := true
	sets := [2][]*result{}
	for i := range sets {
		for _, w := range selected {
			res := spawn(w, seed, seconds, 0)
			printReport(os.Stdout, w, res, false)
			ok = ok && res.correct()
			sets[i] = append(sets[i], res)
		}
	}
	fmt.Printf("\n== A/A: two sets of runs of the same code (seed %d) ==\n", seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tA iqr\tB iqr\tdiff\tbound\t")
	verdict := func(pass bool) string {
		if pass {
			return "PASS"
		}
		ok = false
		return "FAIL"
	}
	for i, w := range selected {
		a, b := sets[0][i], sets[1][i]
		for _, m := range endToEnd() {
			sa, has := a.EndToEnd[m.name]
			if !has {
				continue
			}
			sb := b.EndToEnd[m.name]
			diff := ratio(sb.Value-sa.Value, sa.Value)
			pass := math.Abs(diff) <= m.bound
			if m.model {
				pass = sa.Value == sb.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.1f%%\t%+.2f%%\t%.0f%%\t%s\n", w.name, m.name,
				sa.Value, sb.Value, 100*ratio(sa.Q3-sa.Q1, sa.Median), 100*ratio(sb.Q3-sb.Q1, sb.Median),
				100*diff, 100*m.bound, verdict(pass))
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\t%.6g\t\t\t\t0%%\t%s\n", w.name,
			failedFrac(a), failedFrac(b), verdict(a.Failed == 0 && b.Failed == 0))
		same := a.Digest == b.Digest
		for _, m := range counts {
			same = same && a.PerLayer[m.name] == b.PerLayer[m.name]
		}
		fmt.Fprintf(tw, "%s\tcounts and output digest\t\t\t\t\t\texact\t%s\n", w.name, verdict(same))
	}
	tw.Flush()
	return ok
}
