# Tier-1 gate: `make check` is exactly what CI runs, so a green local check
# means a green pipeline.

GO ?= go

.PHONY: all build test vet race vuln check check-fast loc shapes shapes-permuted events allocs determinism fuzz-smoke bench-test bench-layers bench-pair cover cover-smoke profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
# The determinism rules are a test (TestDeterminismRules, determinism_test.go
# at the module root), so test and race run them with everything else.
check: build vet race vuln

# check-fast trades the race detector for speed during local iteration.
check-fast: build vet test

# loc prints the non-test, non-testdata Go lines of each internal/* package
# and of the repo (bench/, the frozen benchmark program, excluded) — the
# number a "less code" change is judged by.
loc:
	@for d in internal/*/; do \
		printf '%-20s %6d\n' "$${d%/}" $$(find "$$d" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l); \
	done; \
	printf '%-20s %6d\n' total $$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)

# shapes checks the paper's claims (TestPaperShapes, the claim table in
# internal/harness/shapes_test.go) at quick scale and prints one line per
# claim: id, status, provenance (input, derived or emergent), measured
# numbers and bound. A failing claim's line adds the paper's sentence.
shapes:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test ./internal/harness -run '^TestPaperShapes$$' -v > "$$tmp" 2>&1; st=$$?; \
	sed -n 's/^ *shapes_test\.go:[0-9]*: //p' "$$tmp"; tail -n 1 "$$tmp"; exit $$st

# shapes-permuted checks every claim again under eight tie-order seeds
# (TestPaperShapesPermutedTies, built only with the tieperm tag: ≈16 s on
# two cores, too long for go test ./...). A claim that flips under a seed
# depends on which of two simultaneous events runs first: a model bug.
shapes-permuted:
	$(GO) test -tags tieperm ./internal/harness -run '^TestPaperShapesPermutedTies$$'

# events prints dispatched engine events per I/O by callback type: for the
# cam-read-4k shape TestEventsPerIOPinned pins (12 SSDs, 16 batches of 1024
# 4 KiB reads) and for the four 16-read batches of TestGoldenEventLogs (CAM,
# BaM, staged SPDK, io_uring poll). The counts are exact and deterministic:
# the counter a change to the events one simulated I/O costs is judged by.
events:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test ./internal/cam ./internal/harness -run '^(TestEventsPerIOPinned|TestGoldenEventLogs)$$' -v > "$$tmp" 2>&1; st=$$?; \
	sed -n 's/^ *events_\(pinned\|golden\)_test\.go:[0-9]*: //p' "$$tmp"; grep -E '^(ok|FAIL)' "$$tmp"; exit $$st

# allocs prints, one line per quick experiment, the heap objects it
# allocates and the live heap it leaves behind, then the suite total against
# its ceiling (TestQuickExperimentsRetainLittleHeap, ≈5 s).
allocs:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test ./internal/harness -run '^TestQuickExperimentsRetainLittleHeap$$' -v > "$$tmp" 2>&1; st=$$?; \
	sed -n 's/^ *parallel_test\.go:[0-9]*: //p' "$$tmp"; tail -n 1 "$$tmp"; exit $$st

# determinism is the stdout-identity gate: cambench built once, then the whole
# quick suite at -parallel 1 and -parallel 8, with no fault plan and with
# -faults 7:1e-4. Each pair must be byte-identical (≈12 s), and each output
# must hash to its pinned sha256 below. A change that is meant to move the
# model (or any quick-suite figure) updates the two pins in the same commit,
# on purpose; every other change leaves them alone.
DETERMINISM_SHA256 = cd39e3e1f1ac7e4598f69c2a3e7dcdf9a92ce1e51d23d19620ab8161648eda83
DETERMINISM_FAULTS_SHA256 = da8697bc6a991617a5d5269f83cbbc8bffa666e2118ffb229f8b89b55a38cbee
determinism:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/cambench" ./cmd/cambench && \
	for f in "" "-faults 7:1e-4"; do \
		for p in 1 8; do \
			"$$tmp/cambench" -exp all -quick -parallel $$p $$f > "$$tmp/p$$p" 2> "$$tmp/err" || { cat "$$tmp/err"; exit 1; }; \
		done; \
		cmp "$$tmp/p1" "$$tmp/p8" || { echo "determinism: -parallel 1 and -parallel 8 differ ($${f:-no faults})"; exit 1; }; \
		got=$$(sha256sum < "$$tmp/p1" | cut -d' ' -f1); \
		if [ -z "$$f" ]; then want=$(DETERMINISM_SHA256); else want=$(DETERMINISM_FAULTS_SHA256); fi; \
		[ "$$got" = "$$want" ] || { echo "determinism: $${f:-no faults}: sha256 $$got, pinned $$want"; exit 1; }; \
		echo "determinism: $${f:-no faults}: sha256 $$(echo $$got | cut -c1-16) at -parallel 1 and 8, as pinned"; \
	done

# fuzz-smoke gives every fuzz target in the module FUZZTIME of fuzzing, one
# target at a time (go test -fuzz takes one package and one target): the
# differential checks behind the event queue, the payload plane, the ring
# images, the batch paths and the kvcache tier keep finding nothing.
FUZZTIME ?= 5s
fuzz-smoke:
	@n=0; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz-smoke: ./$$(dirname "$$f") $$t"; \
			$(GO) test "./$$(dirname "$$f")" -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) || exit 1; \
			n=$$((n + 1)); \
		done; \
	done; echo "fuzz-smoke: $$n targets, $(FUZZTIME) each"

# bench-test runs the benchmark program's own tests. bench/ is a module of
# its own (BENCHMARK.json names it), so `go test ./...` from the root never
# reaches them; -short skips the 8-seed kv guard.
bench-test:
	cd bench && $(GO) test -short ./...

# bench-layers runs the micro-benchmark of each layer on the spdk → nvme →
# ssd command path — host ns and allocations per ring round trip, per read
# command and per driver request — of the kvcache tier (seven touches to one
# evict+insert at 2048 frames), of the ssd store at rest (page-cell
# write/read per 4 KiB block next to a plain-copy floor) and of mem's
# payload at the tier's shape (a frame fill, a re-stamp or a stamp read at a
# random frame, at 256 and 16 384 frames), each failing if its steady state
# allocates.
# CI runs them once (LAYER_BENCHTIME=1x) to keep them building and
# allocation-free; for numbers use the default and repeat.
LAYER_BENCHTIME ?= 200000x
bench-layers:
	$(GO) test -run '^$$' -bench 'BenchmarkRingRoundtrip|BenchmarkReadCmd|BenchmarkStoreAtRest|BenchmarkSubmitReap|BenchmarkTierCycle|BenchmarkPayloadSplice' \
		-benchtime $(LAYER_BENCHTIME) -cpu 1 ./internal/nvme ./internal/ssd ./internal/spdk ./internal/kvcache ./internal/mem

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
# injection and recovery machinery runs through (nvme's command-tag table
# and sim's deadline-bounded wait included), plus the KV-cache tier that
# drives writes through it — and prints per-function plus total
# statement coverage. The profile lands in cover.out for
# `go tool cover -html=cover.out` spelunking.
COVER_PKGS = ./internal/ssd ./internal/cam ./internal/bam ./internal/spdk ./internal/fault ./internal/kvcache ./internal/nvme ./internal/sim

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@$(GO) tool cover -func=cover.out | tail -1

# cover-smoke is the CI variant: same profile, then a diff of the total
# against the committed COVERAGE_BASELINE.txt that fails when statement
# coverage drops by more than one point. Statement coverage of a
# deterministic simulator does not vary from run to run.
cover-smoke: cover
	@cur=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	if [ -f COVERAGE_BASELINE.txt ]; then \
		base=$$(cat COVERAGE_BASELINE.txt); \
		echo "cover-smoke: total $$cur% (baseline $$base%)"; \
		awk -v c="$$cur" -v b="$$base" 'BEGIN { if (c + 1.0 < b) { \
			printf("::error::coverage dropped: %.1f%% vs baseline %.1f%%\n", c, b); exit 1 } }' || exit 1; \
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
