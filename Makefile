GO ?= go

# bench: which benchmarks feed the perf snapshot, and where it lands.
# Covers the LK hot-path trio (raw Flip cost, the zero-alloc
# Optimize-after-kick acceptance benchmark, full CLK kick throughput on the
# synthetic E1k/C3k testbed instances), the in-node parallel group at
# 1/2/4/8 workers, and the candidate-strategy x gain-rule cross-product
# (kNN/quadrant/alpha/Delaunay x strict/relaxed on three families).
BENCH_PATTERN ?= ^(BenchmarkFlip|BenchmarkOptimizeAfterKick|BenchmarkCLKKicksPerSec|BenchmarkParallelCLK|BenchmarkCandidateStrategies)$$
BENCH_OUT     ?= results/BENCH_PR7.json
BENCH_TIME    ?= 1s

.PHONY: check build vet fmt lint distlint ignore-audit suppressions test race fuzz bench repro repro-smoke doc-links loadtest service-smoke

# loadtest: worker counts the solve-service load test sweeps, and where
# its latency/throughput report lands (see results/README.md).
LOAD_WORKERS ?= 1,2
LOAD_OUT     ?= results/BENCH_PR8.json

# fuzz: the native fuzz targets as package:Target, and how long each runs.
FUZZ_TARGETS ?= ./internal/lk:FuzzArrayTourFlip ./internal/tsp:FuzzReadTSPLIB
FUZZ_TIME    ?= 10s

## check: everything CI runs — lint, full tests, race tests, fuzzing
check: lint test race fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt: fail if any file is not gofmt-clean
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## distlint: the repo's own invariant analyzers (determinism, hot-path
## allocations, context hygiene, no library panics, goroutine lifetimes,
## lock discipline, atomic hygiene, event/counter sync) gated against the
## committed suppressions baseline — see DESIGN.md §8
distlint:
	$(GO) run ./cmd/distlint -baseline lint/suppressions.txt ./...

## ignore-audit: report //lint:ignore comments whose rule no longer fires
## (use `go run ./cmd/distlint -fix-ignore-audit ./...` to delete them)
ignore-audit:
	$(GO) run ./cmd/distlint -ignore-audit ./...

## suppressions: regenerate the committed suppressions baseline
suppressions:
	$(GO) run ./cmd/distlint -write-baseline lint/suppressions.txt ./...

## lint: the one static gate CI runs — invariant analyzers + vet + gofmt
lint: distlint vet fmt

test:
	$(GO) test ./...

## fuzz: run each native fuzz target for FUZZ_TIME beyond its committed
## seed corpus (testdata/fuzz/); go test fuzzes one target per run
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$pkg $$name"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done

## race: the full suite under the race detector (latency assertions widen
## via the raceSlack build-tag constant)
race:
	$(GO) test -race ./...

## bench: run the hot-path benchmarks and emit the $(BENCH_OUT) snapshot
## (ns/op, allocs/op, kicks/sec, seeded final tour length) for the perf
## trajectory future PRs regress against
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) -count 1 -timeout 30m . > bench.out 2>&1 || { cat bench.out; rm -f bench.out; exit 1; }
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < bench.out
	@rm -f bench.out

## loadtest: drive the solve service with concurrent clients and emit the
## $(LOAD_OUT) report (p50/p95/p99 latency + throughput per worker count)
loadtest:
	$(GO) run ./cmd/solved -loadtest -lt-workers $(LOAD_WORKERS) -out $(LOAD_OUT)

## service-smoke: build cmd/solved, boot it, and exercise the e2e contract
## (200 + optimal tour, byte-identical cache hit, clean SIGINT drain)
service-smoke:
	sh scripts/service_smoke.sh

## repro: regenerate the deterministic smoke tier — the marked sections of
## EXPERIMENTS.md, results/smoke/*.csv, and REPRODUCTION.md
repro:
	$(GO) run ./cmd/repro

## repro-smoke: CI drift gate — regenerate in memory and fail on any byte
## difference against the committed artifacts
repro-smoke:
	$(GO) run ./cmd/repro -check

## doc-links: fail on dead intra-repo links in the markdown docs
doc-links:
	$(GO) run ./cmd/repro -links
