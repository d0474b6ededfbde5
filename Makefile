GO ?= go

.PHONY: build test race vet bench bench-compact fuzz metrics-check scand-smoke tables-check xcheck soak loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench runs the fault-simulation benchmarks and writes a
# machine-readable summary (ns/op, allocs/op, batchsteps, fastfwd, ...)
# to BENCH_sim.json via cmd/benchjson. -benchtime can be overridden:
#   make bench BENCHTIME=10x
BENCHTIME ?= 1s

bench:
	{ $(GO) test -run '^$$' -bench 'FaultSimScan|RunSubsetScan|Run$$|StepClean|StepFaulty' \
		-benchmem -benchtime $(BENCHTIME) ./internal/sim/ && \
	  $(GO) test -run '^$$' -bench 'Compaction' -benchmem -benchtime 1x ./internal/compact/ ; } | \
		tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_sim.json

# bench-compact runs the compaction benchmarks — the restore→omit
# pipeline across worker counts (trial throughput, fault-free trace
# splices, reconvergence cutoffs) plus the ADI scoring pass — and writes
# BENCH_compact.json:
#   make bench-compact BENCHTIME=1x     # CI smoke
bench-compact:
	$(GO) test -run '^$$' -bench 'CompactionEngines|ADIScores' \
		-benchmem -benchtime $(BENCHTIME) ./internal/compact/ | \
		tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_compact.json

# fuzz runs the .bench and tester-program parser fuzzers and the job
# spec decoder fuzzer for a short smoke interval each, as CI does.
# Override with FUZZTIME=5m for a longer local run.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -fuzz=FuzzProgramParse -fuzztime $(FUZZTIME) ./internal/testprog
	$(GO) test -fuzz=FuzzDecodeSpec -fuzztime $(FUZZTIME) ./internal/jobs

# metrics-check exercises the -metrics flight recorder end to end: a
# tiny s27 generation+compaction run writes a JSONL file, and
# cmd/metricscheck validates it against the schema (docs/ALGORITHMS.md §11).
metrics-check:
	tmp=$$(mktemp /tmp/metrics.XXXXXX.jsonl); \
	trap 'rm -f $$tmp' EXIT; \
	$(GO) run ./cmd/scangen -circuit s27 -compact -no-baseline -metrics $$tmp >/dev/null && \
	$(GO) run ./cmd/metricscheck $$tmp

# scand-smoke exercises the ATPG job server end to end: start scand on
# an ephemeral port, run jobs through the HTTP API with scanctl,
# validate the streamed events with metricscheck, compare a sharded
# simulate job byte-for-byte against an unsharded one, and require a
# clean SIGTERM drain (README "Serving jobs", docs/ALGORITHMS.md §15).
scand-smoke:
	GO="$(GO)" sh scripts/scand_smoke.sh

# tables-check runs the small suites of scangen (Tables 5 and 6) and
# scantrans (Table 7) and requires every row to equal the committed row
# of the same table and circuit in results_table5_6.txt and
# results_table7.txt; small Table 7 circuits the committed file lacks
# are printed as unchecked (scripts/tables_check.sh).
tables-check:
	GO="$(GO)" sh scripts/tables_check.sh

# xcheck runs the differential/metamorphic cross-check harness
# (docs/ALGORITHMS.md §12) on fixed seeds across every catalog circuit plus
# a seeded synthetic one, under the race detector. A violation prints a
# minimized reproduction and fails the target. Override the seed count
# with XCHECK_SEEDS=5 for a longer local hunt.
XCHECK_SEEDS ?= 1

xcheck:
	$(GO) run -race ./cmd/xcheck -circuits all -seeds $(XCHECK_SEEDS) -start-seed 1

# soak runs the crash/resume soak harness (docs/ALGORITHMS.md §14) under
# the race detector: every iteration kills a flow child at a random
# checkpoint-store or metrics-append failpoint, resumes it, and asserts
# the final output is bit-identical to an uninterrupted run. Override
# with SOAK_ITERS=40 for a CI-sized smoke.
SOAK_ITERS ?= 200

soak:
	$(GO) run -race ./cmd/crashsoak -iters $(SOAK_ITERS) -seed 1

# loc prints the Go lines added, deleted and net per directory from
# BASE to HEAD, with test files counted apart (scripts/loc.sh). Every
# change reports its net lines of code this way:
#   make loc BASE=main
BASE ?= HEAD~1

loc:
	sh scripts/loc.sh $(BASE)

clean:
	rm -f BENCH_sim.json BENCH_compact.json
