GO ?= go

.PHONY: all build test vet lint lint-waivers sanitize fuzz-smoke perfbench-test race race-core race-wide race-all bench-smoke bench-baseline fault-smoke service-smoke soak-smoke chaos-smoke fmt-check tier1 verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint builds autopipelint and runs it twice: as a go vet -vettool over every
# package (simclock, errsentinel, ctxspawn, locksafe, unitsafe, and the
# interprocedural hotalloc and raceguard — the determinism, error,
# concurrency, dimensional, hot-path allocation, and static data-race
# invariants, DESIGN.md §11), and in
# -testdata mode (scheddata) over the checked-in schedule goldens, partition
# plans, and fault plans. Unused //lint:allow waivers fail the run.
lint:
	$(GO) build -o bin/autopipelint ./cmd/autopipelint
	$(GO) vet -vettool=$(abspath bin/autopipelint) ./...
	./bin/autopipelint -testdata ./testdata ./internal/exec/testdata ./internal/fault/testdata ./internal/train/testdata ./internal/schedule/testdata ./BENCH_baseline.json ./BENCH_service.json

# lint-waivers lists every live //lint:allow suppression (file:line, analyzer,
# justification) outside fixture trees — the repository's complete waiver
# budget in one listing, for review. Stale waivers are caught by `make lint`
# itself: an //lint:allow that suppresses nothing is a reported finding.
lint-waivers:
	$(GO) build -o bin/autopipelint ./cmd/autopipelint
	./bin/autopipelint -waivers ./internal ./cmd

# sanitize executes the README quickstart schedules with the runtime
# happens-before sanitizer on: every op is checked against the dependency
# graph, the link model, and the activation-memory ledger as it executes.
# (The exec and train test suites force the sanitizer unconditionally; this
# target exercises the user-facing -sanitize path.)
sanitize:
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -sanitize
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -schedule sliced -sanitize
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -faults testdata/faults_basic.json -sanitize

# fuzz-smoke runs each fuzz target briefly: long enough to replay the corpus
# and explore a little, short enough for every CI run.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=$(FUZZTIME) ./internal/schedule
	$(GO) test -run='^$$' -fuzz=FuzzParsePlan -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzScore -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzMatMul -fuzztime=$(FUZZTIME) ./internal/tensor

# perfbench-test vets and tests the end-to-end benchmark. perfbench is its own
# Go module (perfbench/go.mod), so `go build ./...` and `go test ./...` at the
# root never compile it; without this target an API change that breaks the
# benchmark would only surface when the benchmark runs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# -short skips the Fig. 12 wall-clock-ordering test, whose relative search
# times the race detector's instrumentation distorts (it fails under -race
# even on the unmodified seed tree).
race:
	$(GO) test -race -short ./...

# race-core runs the planner engine, plan evaluator, discrete-event
# executor, and self-healing training driver under the race detector at
# full depth — the packages where the parallel search's worker pool, the
# simulation cache, and the fault-injected recovery paths live.
race-core:
	$(GO) test -race ./internal/core/... ./internal/plan/... ./internal/exec/... ./internal/train/...

# race-wide covers the remaining concurrent surface at full depth — the
# autopiped service path (worker pool, cache, singleflight, soak ledger,
# chaos middleware), the observability registry fast path, and the benchmark
# harness — matching the static claim raceguard makes over the same
# packages: what the analyzer proves unordered-access-free, the dynamic
# detector exercises. race-all is both halves; CI's race matrix runs them as
# separate jobs.
race-wide:
	$(GO) test -race ./internal/service/... ./internal/obs/... ./internal/bench/...

race-all: race-core race-wide

# bench-smoke compiles and runs every micro-benchmark exactly once — planner,
# exec event loop, schedule dependency graphs, slicer, obs registry, tensor
# matmul kernels, the pipelined training step — then
# drives the autopipebench suite in one-iteration mode and self-compares the
# result (correctness smoke, not a measurement); the -run filter skips tests.
bench-smoke:
	@mkdir -p bin
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/autopipebench -label smoke -o bin/BENCH_smoke.json -benchtime 1x
	$(GO) run ./cmd/autopipebench compare bin/BENCH_smoke.json bin/BENCH_smoke.json

# bench-baseline refreshes the checked-in perf trajectory at full benchtime.
# Run on a quiet machine, eyeball the compare report against the old numbers,
# and commit the file (DESIGN.md §13).
bench-baseline:
	$(GO) run ./cmd/autopipebench -label baseline -o BENCH_baseline.json

# fault-smoke executes a schedule under the checked-in basic fault plan —
# the README's resilience quickstart must keep working end to end.
fault-smoke:
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -faults testdata/faults_basic.json

# service-smoke boots the autopiped daemon end to end — plan over HTTP,
# cache-hit equality, singleflight counter audit, typed wire rejection,
# /metrics and pprof probes — first memory-only, then with a job store to
# prove restart-resume (the restarted daemon must answer from the replayed
# cache with zero engine searches). DESIGN.md §14.
service-smoke:
	@mkdir -p bin
	$(GO) build -o bin/autopiped ./cmd/autopiped
	./bin/autopiped -smoke
	rm -rf bin/service-smoke-store
	./bin/autopiped -smoke -store bin/service-smoke-store

# soak-smoke runs the crash-recovery harness: a real daemon on a real job
# store is killed and restarted mid-traffic three times, and every job must
# complete exactly once, the cache must re-seed from the replayed store, and
# planted torn files (plus any crash wreckage) must be quarantined — never a
# corrupted boot. DESIGN.md §15.
soak-smoke:
	@mkdir -p bin
	$(GO) build -o bin/autopiped ./cmd/autopiped
	./bin/autopiped -soak -soak-cycles 3

# chaos-smoke drives the load generator through the seeded chaos middleware
# (injected latency, 5xx, 429, and torn responses from the checked-in plan):
# the resilient client must still complete every request. Report-only — the
# QPS numbers are not compared against the baseline, since chaos skews them
# by design.
chaos-smoke:
	@mkdir -p bin
	$(GO) build -o bin/autopiped ./cmd/autopiped
	./bin/autopiped -loadgen -requests 120 -concurrency 6 -chaos testdata/chaos_basic.json

# fmt-check fails (with the offending files listed) if anything is not
# gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# tier1 is the repository's baseline gate (ROADMAP.md).
tier1: build test

# verify runs everything CI would: formatting, static analysis (go vet plus
# the autopipelint invariant suite), the full test suite under the race
# detector, the deep race pass over the planner engine and the whole
# service/observability/bench surface (race-all), a one-shot benchmark
# smoke, the fault-injection smoke, the service smoke, the crash-recovery
# soak, the chaos-loadgen smoke, the sanitized executions, and the tier-1
# gate. (CI additionally runs fuzz-smoke, kept out of verify so the local
# gate stays fast.)
verify: fmt-check vet lint tier1 race race-all bench-smoke fault-smoke service-smoke soak-smoke chaos-smoke sanitize

clean:
	$(GO) clean ./...
	rm -rf bin
