GO ?= go

.PHONY: all build test vet vet-cb race test-debug bench bench-snapshot bench-gate ci figures fuzz chaos-litmus replay-e2e cluster-e2e cycles

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-cb runs the project's own analyzers (internal/analysis, driven by
# cmd/cbvet) through the go vet harness: determinism, msgfree, hotpath,
# obsreadonly, statecov (digest coverage), waivers (directive
# hygiene). See README "Static analysis".
vet-cb:
	$(GO) build -o bin/cbvet ./cmd/cbvet
	$(GO) vet -vettool=$(CURDIR)/bin/cbvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-debug exercises the -tags cbsimdebug build: the noc double-free
# guard (poison + panic) and its tagged tests.
test-debug:
	$(GO) test -tags cbsimdebug ./internal/noc/

# bench runs every benchmark once: a smoke pass that exercises the figure
# regeneration paths and the alloc-counting benchmarks without the full
# measurement cost.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-snapshot writes a machine-readable perf record (hot-path ns/op
# and allocs/op, simulated-cycles-per-second) for CI to archive per PR.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -o BENCH_pr.json

# bench-gate diffs BENCH_pr.json against the committed BENCH_baseline.json:
# allocs/op exact, ns/op within a generous machine-speed tolerance, plus
# same-machine ratios (wheel >= 2x heap on spin-wave; checkpoint
# recording within 2.5x of a plain run). Regenerate the baseline with
# `go run ./cmd/benchsnap -o BENCH_baseline.json` when perf changes are
# intentional, and say so in the PR.
bench-gate: bench-snapshot
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -pr BENCH_pr.json

# fuzz runs the repository's fuzz targets for a bounded session each:
# the callback-directory differential fuzzer (real directory vs. an
# unbounded reference model) and the program-verifier soundness fuzzer
# (any strict-verified program must complete on a real machine within
# its declared budget). CI runs a short smoke; use FUZZTIME=5m locally
# for a real hunt.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzDirectory -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzVerifiedPrograms -fuzztime $(FUZZTIME) ./internal/isa/verify/

# chaos-litmus is the fault-injection gate: the chaos sweep (litmus
# programs and sync kernels under the fault matrix at fixed seeds must
# match their fault-free outcomes), the eviction-storm litmus tests, and
# the machine-level watchdog/invariant tests.
chaos-litmus:
	$(GO) test -count=1 -run 'TestRunChaos|Storm|TestWatchdog|TestCheckInvariants|TestChaosConfig' \
		./internal/experiments/ ./internal/litmus/ ./internal/machine/

# replay-e2e is the time-travel gate over the wire: build the real
# cbsimd binary, run a checkpointed job, replay windows of it over HTTP,
# and diff the replayed full-window Chrome trace against a directly
# traced run of the same cell (byte-identical, or the gate fails).
replay-e2e:
	$(GO) test -count=1 -run TestReplayE2E ./cmd/cbsimd/

# cluster-e2e is the robustness gate over real processes: three cbsimd
# daemons form a cluster over loopback, a standalone daemon defines the
# baseline bytes, one member is SIGKILLed mid-sweep, and the survivors'
# sweep tables must stay byte-identical to the baseline. The in-process
# fault-schedule invariance suite (drop/delay/dup/partition at fixed
# seeds) runs alongside it.
cluster-e2e:
	$(GO) test -count=1 -run TestClusterKillPeerE2E ./cmd/cbsimd/
	$(GO) test -count=1 ./internal/cluster/...

# ci is the full gate: vet (stock + project analyzers), build,
# race-enabled tests, the cbsimdebug tagged tests, a single-shot
# benchmark pass, the perf gate (which also writes the archived
# BENCH_pr.json snapshot), the replay end-to-end gate, and the cluster
# kill-a-peer end-to-end gate.
ci: vet vet-cb build race test-debug bench bench-gate replay-e2e cluster-e2e

# figures regenerates every table of the paper at full 64-core scale.
figures:
	$(GO) run ./cmd/experiments -fig all

# cycles produces the cycle-accounting artifacts for the reference
# Figure-21 cell (radiosity across all 7 standard setups): folded stacks
# text (flamegraph.pl / speedscope input) plus a gzipped pprof profile
# (`go tool pprof -top CYCLES_pr.pb.gz`). Per-core attribution of every
# simulated cycle; conservation is enforced by machine invariants.
cycles:
	$(GO) run ./cmd/cbsim -bench radiosity -cores 64 \
		-cyclefolded CYCLES_pr.folded.txt -cycleprofile CYCLES_pr.pb.gz
