# phasemon build and reproduction targets.

GO ?= go

# staticcheck is optional locally (CI pins and installs it); the lint
# target runs it only when present so `make lint` works offline.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

.PHONY: all build test test-short check lint fuzz-targets-check fma-check perfbench-check fleet-race replay-long serve-race fuzz-smoke race serve-smoke tournament-smoke bench bench-json bench-smoke experiments extensions csv clean

all: build test

build:
	$(GO) build ./...

# Static analysis: vet, the repo's own analyzer suite (see DESIGN.md
# §8 and §13), and staticcheck when installed. The quiet skip is a
# local-only convenience: in CI (CI=... is set by every major CI
# system) a missing staticcheck fails the target rather than silently
# weakening the gate.
lint: fuzz-targets-check
	$(GO) vet ./...
	$(GO) run ./cmd/phasemonlint ./...
ifneq ($(STATICCHECK),)
	$(STATICCHECK) ./...
else ifneq ($(CI),)
	@echo "error: staticcheck $(STATICCHECK_VERSION) is required in CI but is not installed" >&2
	@exit 1
else
	@echo "staticcheck not found; skipping (CI runs $(STATICCHECK_VERSION))"
endif

# perfbench is a module of its own (replace phasemon => ../), so the
# root `go build ./...` never compiles it: an API break there would go
# unnoticed until a benchmark run. Vet and test it against this tree.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The fleet engine's determinism contract (bit-identical results at
# any worker count) is the most concurrency-sensitive surface in the
# repo: run it, the governor it drives, the machine tables its
# concurrent replays share, and the callers that fan out on fleet.Map
# and fleet.Play (the tournament, dvfsgov — whose replays fold into
# one shared telemetry hub — and the experiment figures, including the
# fleet workers filling a shared experiments.Cache) under the race
# detector uncached, so a schedule-dependent bug can't hide behind the
# test cache.
fleet-race:
	$(GO) test -race -count=1 ./internal/fleet ./internal/governor ./internal/tournament ./internal/machine ./cmd/dvfsgov
	$(GO) test -race -count=1 -run 'TestFiguresWorkerInvariance|TestSharedCacheWork|TestCacheKeyCompleteness|TestMemoSingleFlight' ./internal/experiments

# The replay's long differential cases — a kernel log that wraps the
# ring, and replay records carried past their window — are skipped
# under -race, where they are slow and sequential, so run them here
# without it, uncached.
replay-long:
	$(GO) test -count=1 -run 'TestReplayMatchesRunContext|TestLongPrefixMatchesShorterRun' ./internal/governor

# The serving path's reader/worker locking — per-frame session lookup,
# per-worker ring pushes, in-flight settle accounting, the write
# coalescer — and the rollup shards it ingests into, under the race
# detector uncached, so a schedule-dependent bug can't hide behind the
# test cache.
serve-race:
	$(GO) test -race -count=1 ./internal/phased ./internal/phaseclient ./internal/agg

# A short fuzzing pass: over the predictor targets (the window vote
# against its full-rescan reference, GPHT state validity on invalid
# IDs, every paper predictor's output validity), over the wire
# decoders (the streaming frame decoder, and the session-state codec
# that Snapshot and Restore frames share), over the telemetry journal
# ring against its slot-by-slot reference, over the phase table's
# cut-point Classify against its search-based reference, over
# Classify against each phase's nominal Table 1 range (a sample within
# ApproxEqual tolerance below a bound belongs to the phase above it)
# and the UPC table's Classify against its bounds, over a governed run
# replayed over a machine table against the same run on the full
# machine, over the telemetry histogram's bucket counts, the trace CSV
# reader on arbitrary input, the lint directive parser, and the
# predictability bound's range.
# Each target is named package:Fuzz and runs for $(FUZZTIME); a failing
# input is written under the package's testdata/fuzz and fails the
# target.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	./internal/core:FuzzWindowMajority \
	./internal/core:FuzzGPHTNeverProducesInvalidState \
	./internal/core:FuzzPredictorsAgreeOnValidity \
	./internal/wire:FuzzDecoder \
	./internal/wire:FuzzSnapshotDecode \
	./internal/wire:FuzzRestoreDecode \
	./internal/telemetry:FuzzJournalRecent \
	./internal/telemetry:FuzzHistogramObserve \
	./internal/phase:FuzzClassifyMatchesReference \
	./internal/phase:FuzzTableClassify \
	./internal/phase:FuzzUPCTableClassify \
	./internal/governor:FuzzReplayMatchesRunContext \
	./internal/trace:FuzzReadCSVNeverPanics \
	./internal/lint:FuzzDirectiveNames \
	./internal/analysis:FuzzPredictabilityBoundStaysInRange

# Every Fuzz function in the module must be listed above, and every
# listed target must exist: a new target cannot be left out of
# fuzz-smoke unnoticed.
fuzz-targets-check:
	./scripts/fuzz_targets_check.sh $(FUZZ_TARGETS)

fuzz-smoke: fuzz-targets-check
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; f=$${t#*:}; \
		echo "fuzz-smoke: $$pkg $$f"; \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# Floats that do not depend on the architecture (ROADMAP item 8): the
# packages listed here compile for arm64 with no fused multiply-add,
# and fma-check keeps them so. Add a package once its count is 0.
FMA_PACKAGES := ./internal/cpusim ./internal/machine ./internal/governor \
	./internal/core ./internal/agg ./internal/kernelsim \
	./internal/telemetry ./internal/phased ./internal/fleet \
	./internal/thermal ./internal/power ./internal/tournament \
	./internal/experiments ./internal/daq ./internal/analysis \
	./internal/workload

fma-check:
	./scripts/fma_check.sh $(FMA_PACKAGES)

# The strict gate: lint, the fused multiply-add check, the benchmark
# module's build and tests, the fleet determinism and serving race
# suites, a short fuzzing pass, the full suite under the race
# detector, then a live client/server smoke over real sockets. The
# telemetry hot paths are lock-free atomics shared with HTTP readers,
# so -race is part of the default bar, not an extra.
check: lint fma-check perfbench-check fleet-race replay-long serve-race fuzz-smoke
	$(GO) test -race ./...
	$(MAKE) serve-smoke
	$(MAKE) tournament-smoke

# End-to-end smoke of the serving stack (DESIGN.md §11): start phased,
# replay workloads through phasefeed with the bit-identity check on,
# SIGTERM, and assert a clean drain with zero protocol errors.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the predictor tournament (DESIGN.md §16): run
# phasearena on a 3-workload x 6-spec x 2-granularity grid with 2
# elimination rounds at -workers 1, 2 and 4, and for 3 rounds without
# elimination (-top 0, one replay per cell) at -workers 1 and 4, and
# require byte-identical leaderboard JSON within each set.
tournament-smoke:
	./scripts/tournament_smoke.sh

test: check

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# --- Benchmark-regression harness (DESIGN.md §10) -------------------
#
# bench-json runs the canonical hot-path benchmark set and exports it
# as $(BENCH_JSON) through cmd/benchjson. The committed
# BENCH_hotpath.json is the reference point; bench-smoke re-measures
# quickly (-benchtime=$(SMOKE_BENCHTIME)) and fails on allocs/op
# regressions — the only machine-independent metric, which is why CI
# gates on it alone. Gate ns/op or B/op locally with:
#   go run ./cmd/benchjson -compare -gate all BENCH_hotpath.json out/BENCH_smoke.json

BENCH_JSON ?= BENCH_hotpath.json
BENCHTIME ?= 1s
SMOKE_BENCHTIME ?= 100x

bench-json:
	@mkdir -p out
	$(GO) test -run '^$$' -bench 'BenchmarkGovernorRun$$|BenchmarkGovernorReplay$$|BenchmarkGPHTObserve$$|BenchmarkHeadline$$' -benchmem -benchtime=$(BENCHTIME) . > out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSweep$$' -benchmem -benchtime=$(BENCHTIME) ./internal/fleet >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkMonitorStepAllocs$$|BenchmarkSnapshotRoundTrip$$|BenchmarkPredictorObserve$$' -benchmem -benchtime=$(BENCHTIME) ./internal/core >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTournamentRounds?$$' -benchmem -benchtime=$(SMOKE_BENCHTIME) ./internal/tournament >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkWorkloadCache$$' -benchmem -benchtime=$(BENCHTIME) ./internal/wcache >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkWireRoundTrip$$|BenchmarkRollupEncode$$|BenchmarkBatchRoundTrip$$' -benchmem -benchtime=$(BENCHTIME) ./internal/wire >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSessionStep$$|BenchmarkSamplesPerSecPerCore$$' -benchmem -benchtime=$(BENCHTIME) ./internal/phased >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRollupIngest$$' -benchmem -benchtime=$(BENCHTIME) ./internal/agg >> out/bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkReplyPath$$' -benchmem -benchtime=$(BENCHTIME) ./internal/phaseclient >> out/bench.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) out/bench.txt
	@echo "wrote $(BENCH_JSON)"

bench-smoke:
	$(MAKE) bench-json BENCHTIME=$(SMOKE_BENCHTIME) BENCH_JSON=out/BENCH_smoke.json
	$(GO) run ./cmd/benchjson -compare -gate allocs -threshold 0.25 BENCH_hotpath.json out/BENCH_smoke.json

# Regenerate every paper table/figure at full length.
experiments:
	$(GO) run ./cmd/experiments -run all

# The beyond-the-paper studies (DTM, power caps, ablations, ...).
extensions:
	$(GO) run ./cmd/experiments -run extensions

# Machine-readable figure datasets for plotting.
csv:
	$(GO) run ./cmd/experiments -run headline -csvdir out/figures

clean:
	$(GO) clean ./...
	rm -rf out
