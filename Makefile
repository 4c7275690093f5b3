# Tier-1 gate: `make check` is exactly what CI runs, so a green local check
# means a green pipeline.

GO ?= go

.PHONY: all build test vet lint lint-strict lint-sarif race vuln check check-fast loc bench bench-smoke bench-smoke-fig10a bench-smoke-kv bench-test bench-layers bench-pair bench-diff cover cover-smoke profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs camlint, the repo's simulation-invariant analyzers
# (internal/lint): nodeterminism, errchecksim, eventtime, mutexheld,
# poollife, lockorder, dettaint, hotalloc, unusedallow. Findings recorded
# in lint_baseline.json are accepted; only new ones fail.
lint:
	$(GO) run ./cmd/camlint ./...

# lint-strict ignores the baseline: every finding (accepted or not) is
# printed and fails the target. Use it to review or burn down the baseline.
lint-strict:
	$(GO) run ./cmd/camlint -strict ./...

# lint-sarif emits the full (baseline-ignoring) findings as SARIF for code
# scanning UIs; CI uploads camlint.sarif as a workflow artifact.
lint-sarif:
	$(GO) run ./cmd/camlint -strict -format sarif ./... > camlint.sarif || true
	@echo "lint-sarif: wrote camlint.sarif"

race:
	$(GO) test -race ./...

# vuln runs govulncheck when installed (CI installs it; local runs skip
# gracefully since this repo must build without network access).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# check is the full gate. The race-enabled test run dominates (~10 min).
check: build vet lint race vuln

# check-fast trades the race detector for speed during local iteration.
check-fast: build vet lint test

# loc prints the non-test, non-testdata Go lines of each internal/* package
# and of the repo (bench/, the frozen benchmark program, excluded) — the
# number ROADMAP item 3's "less code" is judged by.
loc:
	@for d in internal/*/; do \
		printf '%-20s %6d\n' "$${d%/}" $$(find "$$d" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l); \
	done; \
	printf '%-20s %6d\n' total $$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)

# bench runs the figure reproductions once each under the benchmark
# harness and records ns/op, allocs/op, sim-ns/op, and the derived
# simulation rate in the next free BENCH_<n>.json — the repo's perf
# trajectory, one file per recorded run. Each benchmark runs in its own
# process: in-suite, a figure's wall time depends on its position (large
# arena allocations recycle the previous figure's dirty heap spans and
# pay a memclr a standalone run never sees), so per-figure processes are
# what make the numbers hermetic and comparable. The test binary is
# compiled once up front and reused for every figure: recompiling per
# figure burned CPU between measurements, which on burst-budgeted
# machines throttled the benchmarks that followed.
# CAMSIM_SHARDS (default 4) sets the shard workers for clustered
# experiments; output is identical at any value.
bench:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -c -o "$$tmp/camsim.test" . && \
	{ for b in $$("$$tmp/camsim.test" -test.list 'Benchmark(Fig|Abl|KV).*' | grep '^Benchmark'); do \
		CAMSIM_SHARDS=$${CAMSIM_SHARDS:-4} "$$tmp/camsim.test" -test.run XXX -test.bench "^$${b}\$$" -test.benchmem -test.benchtime 1x; \
	done; } | $(GO) run ./cmd/benchjson -o auto

# bench-smoke is the CI variant: same per-benchmark process structure,
# but the JSON goes to bench-smoke.json (discarded) instead of
# accumulating files. It then diffs the fresh run against the latest
# committed BENCH_<n>.json and warns (without failing) when any figure's
# simulation rate drops by more than 20% or its heap traffic (B/op) grows
# by more than 30% — the latter is the zero-copy data plane's regression
# gate: a copy site reverting to eager materialization shows up as a
# B/op jump long before it costs enough wall time to trip the sim-rate
# warning. Runs at CAMSIM_SHARDS=1 — serial shard windows — so the gate
# tracks the single-worker engine.
#
# bench-smoke-fig10a is the focused single-shard sim-rate gate: the Fig 10a
# sort benchmark alone through the same steps. The full pass covers every
# figure, but this one names the single-worker engine explicitly so a
# single-shard dispatch regression is called out on its own line even if
# someone retunes the suite-wide smoke shard count.
#
# bench-smoke-kv is the same focused gate for the KV-cache serving
# benchmark — the one workload that writes to the array under load, so a
# scatter-path or tier-bookkeeping perf regression shows up here even when
# the read-dominated figures stay flat.
#
# One rule serves all three: SMOKE_BENCH selects the benchmarks, the target
# name ($@) names the scratch JSON and the messages, and SMOKE_THEN lists
# the focused gates the full pass runs afterwards. All warn-only.
bench-smoke:        SMOKE_BENCH = Benchmark.*
bench-smoke:        SMOKE_THEN  = bench-smoke-fig10a bench-smoke-kv
bench-smoke-fig10a: SMOKE_BENCH = ^BenchmarkFig10a_Sort$$
bench-smoke-kv:     SMOKE_BENCH = ^BenchmarkKV_Serving$$

bench-smoke bench-smoke-fig10a bench-smoke-kv:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -c -o "$$tmp/camsim.test" . && \
	{ for b in $$("$$tmp/camsim.test" -test.list '$(SMOKE_BENCH)' | grep '^Benchmark'); do \
		CAMSIM_SHARDS=1 "$$tmp/camsim.test" -test.run XXX -test.bench "^$${b}\$$" -test.benchmem -test.benchtime 1x; \
	done; } | $(GO) run ./cmd/benchjson -o $@.json
	@base=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -n "$$base" ]; then \
		$(GO) run ./cmd/benchjson -diff -warn-sim-regress 20 -warn-bytes-regress 30 "$$base" $@.json; \
	else \
		echo "$@: no committed BENCH_<n>.json baseline, skipping diff"; \
	fi
	@rm -f $@.json
	@for t in $(SMOKE_THEN); do $(MAKE) --no-print-directory $$t || exit 1; done

# bench-test runs the benchmark program's own tests. bench/ is a module of
# its own (BENCHMARK.json names it), so `go test ./...` from the root never
# reaches them; -short skips the 8-seed kv guard.
bench-test:
	cd bench && $(GO) test -short ./...

# bench-layers runs the micro-benchmark of each layer on the spdk → nvme →
# ssd command path: host ns and allocations per ring round trip, per read
# command and per driver request. Each fails if its steady state allocates.
# CI runs them once (LAYER_BENCHTIME=1x) to keep them building and
# allocation-free; for numbers use the default and repeat.
LAYER_BENCHTIME ?= 200000x
bench-layers:
	$(GO) test -run '^$$' -bench 'BenchmarkRingRoundtrip|BenchmarkReadCmd|BenchmarkSubmitReap' \
		-benchtime $(LAYER_BENCHTIME) -cpu 1 ./internal/nvme ./internal/ssd ./internal/spdk

# bench-pair is the procedure behind a performance claim: N alternating runs
# of one BENCHMARK.json workload on BASE and on the working tree, each
# side's median and quartiles, the win count, and a hard failure if the two
# sides simulate different things (scripts/benchpair.sh).
#	make bench-pair WL=cam-read-4k BASE=HEAD~1 N=10
WL ?= cam-read-4k
BASE ?= HEAD
N ?= 10
bench-pair:
	bash scripts/benchpair.sh $(WL) $(BASE) $(N)

# cover profiles the fault-critical data plane — the packages the fault
# injection and recovery machinery runs through, plus the KV-cache tier
# that drives writes through it — and prints per-function plus total
# statement coverage. The profile lands in cover.out for
# `go tool cover -html=cover.out` spelunking.
COVER_PKGS = ./internal/ssd ./internal/cam ./internal/bam ./internal/spdk ./internal/fault ./internal/kvcache

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@$(GO) tool cover -func=cover.out | tail -1

# cover-smoke is the CI variant: same profile, then a diff of the total
# against the committed COVERAGE_BASELINE.txt that warns (without failing)
# when statement coverage drops by more than one point — the coverage
# sibling of bench-smoke's sim-rate warning.
cover-smoke: cover
	@cur=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	if [ -f COVERAGE_BASELINE.txt ]; then \
		base=$$(cat COVERAGE_BASELINE.txt); \
		echo "cover-smoke: total $$cur% (baseline $$base%)"; \
		awk -v c="$$cur" -v b="$$base" 'BEGIN { if (c + 1.0 < b) \
			printf("::warning::coverage dropped: %.1f%% vs baseline %.1f%%\n", c, b) }'; \
	else \
		echo "cover-smoke: no COVERAGE_BASELINE.txt baseline, skipping diff"; \
	fi
	@rm -f cover.out

# profile captures CPU and allocation profiles of the two hottest figure
# reproductions — the Fig 8 throughput sweep (driver/device data plane) and
# the Fig 10a out-of-core sort (application pipeline) — under the quick
# workloads, writing pprof files under profiles/. Start perf work from
# these (see README "Profiling" for the read workflow) instead of guessing.
profile:
	@mkdir -p profiles
	$(GO) run ./cmd/cambench -exp fig8 -quick \
		-cpuprofile profiles/fig8.cpu.pprof -memprofile profiles/fig8.mem.pprof >/dev/null
	$(GO) run ./cmd/cambench -exp fig10a -quick \
		-cpuprofile profiles/fig10a.cpu.pprof -memprofile profiles/fig10a.mem.pprof >/dev/null
	@ls -l profiles/

# bench-diff compares the two most recent BENCH_<n>.json snapshots,
# printing per-benchmark percentage deltas (ns/op, B/op, allocs/op, and
# the sim_per_wall simulation rate).
bench-diff:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -2); \
	if [ $$# -lt 2 ]; then \
		echo "bench-diff: need at least two BENCH_<n>.json snapshots (run make bench)"; \
		exit 1; \
	fi; \
	$(GO) run ./cmd/benchjson -diff "$$1" "$$2"
