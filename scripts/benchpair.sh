#!/usr/bin/env bash
# Parent/change pairs of one benchmark workload, the procedure a performance
# claim rests on (choosing-metrics §8):
#
#   scripts/benchpair.sh <workload|all> <base-rev> [pairs]      (make bench-pair)
#
# Exports <base-rev> into a temporary directory, builds the benchmark in both
# trees, and runs `bench/run.sh -workload W -seed i` for i = 1..pairs on each,
# alternating which side goes first. Prints every run, then each side's
# median and quartiles and the change's win count for every host-side
# end-to-end metric. One traced run per side follows, for the exact counts.
# `all` does this for every BENCHMARK.json workload in turn and closes with
# one table of workload × host metric: base median, change median, wins.
# Exits 1 if any model-side value (sim_s, the output digest, attempted and
# failed operations, any count) differs between the sides at the same seed:
# a host-time comparison of two different models means nothing.
set -euo pipefail

wls=${1:?usage: benchpair.sh <workload|all> <base-rev> [pairs]}
base=${2:?usage: benchpair.sh <workload|all> <base-rev> [pairs]}
n=${3:-10}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
if [ "$wls" = all ]; then
	wls=$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([^"]*\)".*/\1/p' "$root/BENCHMARK.json")
fi

# "lower" or "higher" is better, as BENCHMARK.json declares.
host="wall_s:lower sim_per_wall:higher allocs_per_op:lower peak_rss_mb:lower setup_s:lower"
# Names of the metrics that measure the host; every other one is the model's.
hostre='^(wall_s|sim_per_wall|allocs_per_op|peak_rss_mb|setup_s|bytes_per_op)$|cpu_share$|ns_per_|\..*_ms$|allocs_per_event|trace_overhead'

# run <tree> <out> <args...>: one benchmark run, report kept in <out>.
run() {
	local tree=$1 out=$2
	shift 2
	# From inside the tree, the way the benchmark's driver runs it.
	if ! (cd "$tree" && bash bench/run.sh -workload "$wl" "$@") >"$out" 2>"$out.err"; then
		cat "$out" "$out.err" >&2
		echo "benchpair: $tree failed on $*" >&2
		exit 1
	fi
}

# metrics <report>: "name value" for every metric of the one-line result,
# plus attempted, failed and the output digest.
metrics() {
	tail -n 1 "$1" | grep -o '"[A-Za-z0-9_.-]*":{"value":[^,]*' | sed 's/^"\([^"]*\)":{"value":/\1 /'
	tail -n 1 "$1" | grep -o '"\(attempted\|failed\)":[0-9]*' | sed 's/^"\([a-z]*\)":/\1 /'
	awk '/^output sha256 /{print "digest", $3}' "$1"
}

value() { awk -v m="$2" '$1 == m {print $2}' "$1"; }

# model <metrics-file>: the rows that must not differ between the sides.
model() { awk -v re="$hostre" '$1 !~ re' "$1"; }

# quartiles: median, q1 and q3 of the numbers on stdin (linear interpolation).
quartiles() {
	sort -g | awk '{v[NR] = $1}
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

differ=0
compare() { # <label> <base metrics> <change metrics>
	if ! diff <(model "$2") <(model "$3") >"$tmp/diff"; then
		echo "MODEL DIFFERS at $1 (< base, > change):"
		cat "$tmp/diff"
		differ=1
	fi
}

# pair: the pairs, the table and the traced run of workload $wl.
pair() {
	echo "== $wl: $n pairs, base $(git -C "$root" rev-parse --short "$base") vs working tree =="
	for i in $(seq 1 "$n"); do
		order="base change"
		if [ $((i % 2)) -eq 0 ]; then order="change base"; fi
		for side in $order; do
			tree=$root
			if [ "$side" = base ]; then tree=$tmp/base; fi
			run "$tree" "$tmp/$side.$i.out" -seed "$i"
			metrics "$tmp/$side.$i.out" >"$tmp/$side.$i"
		done
		compare "seed $i" "$tmp/base.$i" "$tmp/change.$i"
		printf 'seed %-3d' "$i"
		for h in $host sim_s:; do
			m=${h%%:*}
			printf ' %s %s|%s' "$m" "$(value "$tmp/base.$i" "$m")" "$(value "$tmp/change.$i" "$m")"
		done
		echo
	done

	printf '\n%-14s %-7s %12s %12s %12s   %s\n' metric side median q1 q3 "change wins"
	for h in $host; do
		m=${h%%:*}
		better=${h##*:}
		wins=0
		ties=0
		summary=$m
		for i in $(seq 1 "$n"); do
			b=$(value "$tmp/base.$i" "$m")
			c=$(value "$tmp/change.$i" "$m")
			r=$(awk -v b="$b" -v c="$c" -v better="$better" 'BEGIN {
				if (b == c) print "tie"; else if ((better == "lower") == (c < b)) print "win"; else print "loss" }')
			if [ "$r" = win ]; then wins=$((wins + 1)); fi
			if [ "$r" = tie ]; then ties=$((ties + 1)); fi
		done
		for side in base change; do
			read -r med q1 q3 < <(for i in $(seq 1 "$n"); do value "$tmp/$side.$i" "$m"; done | quartiles)
			note=""
			if [ "$side" = change ]; then note="$wins of $n ($ties ties)"; fi
			printf '%-14s %-7s %12s %12s %12s   %s\n' "$m" "$side" "$med" "$q1" "$q3" "$note"
			summary="$summary $med"
		done
		printf '%-16s %-14s %12s %12s   %s\n' "$wl" $summary "$wins of $n" >>"$tmp/summary"
	done

	echo
	echo "== traced run, seed 1: exact counts =="
	for side in base change; do
		tree=$root
		if [ "$side" = base ]; then tree=$tmp/base; fi
		run "$tree" "$tmp/$side.trace.out" -seed 1 -trace 1
		metrics "$tmp/$side.trace.out" >"$tmp/$side.trace"
	done
	compare "the traced run" "$tmp/base.trace" "$tmp/change.trace"
	printf '%-28s %14s %14s\n' per-layer base change
	for m in nvme.cpu_share ssd.cpu_share spdk.cpu_share kvcache.cpu_share mem.cpu_share sim.cpu_share runtime.cpu_share \
		nvme.ns_per_roundtrip ssd.ns_per_read_cmd spdk.self_ns_per_req kvcache.tier_ns_per_op mem.ns_per_resolve \
		sim.allocs_per_event; do
		printf '%-28s %14s %14s\n' "$m" "$(value "$tmp/base.trace" "$m")" "$(value "$tmp/change.trace" "$m")"
	done
	echo
}

for wl in $wls; do
	pair
done
if [ "$(echo "$wls" | wc -w)" -gt 1 ]; then
	printf '%-16s %-14s %12s %12s   %s\n' workload metric "base median" "change median" "change wins"
	cat "$tmp/summary"
fi

if [ "$differ" -ne 0 ]; then
	echo "benchpair: model-side values differ; the host-time comparison above is void" >&2
	exit 1
fi
echo "model side identical on every seed of $(echo $wls)"
