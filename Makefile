# parbw — reproduction of "Modeling Parallel Bandwidth: Local vs. Global
# Restrictions" (SPAA 1997). Stdlib-only Go; everything runs offline.

GO ?= go

.PHONY: all build vet test race chaos chaos-cluster stream-chaos bench-scale bench-tables bench-smoke dag-verify experiments verify export serve fuzz fuzz-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (CI runs this), then the worker pool,
# the machines and every package that fans work out on the pool, the run
# store the service's workers read concurrently, the asynchronous machine
# and the whole experiment harness with its goldens again at 1, 2 and 4
# cores: core count is a test axis, not an assumption.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/workpool ./internal/engine \
		./internal/bsp ./internal/qsm ./internal/pram ./internal/collective \
		./internal/oracle ./internal/service ./internal/runstore ./internal/sched \
		./internal/shrink ./internal/work/... ./internal/workgen ./internal/async \
		./internal/harness

# Deterministic fault-injection suite (CI runs this): the internal/fault
# framework, the hardened run store, and the service chaos tests — fixed
# plan seeds, so failures replay bit-identically. Race detector on, cache
# off, so injected faults actually re-fire every run.
chaos:
	$(GO) test -race -count=1 ./internal/fault ./internal/runstore ./internal/retry
	$(GO) test -race -count=1 -run 'Chaos|Breaker|Backoff|EncodeErrors|RetryAfter|ProgramPanic' ./internal/service

# Cluster chaos (CI runs this): a 3-node in-process cluster driven through
# seeded peer-failure plans — node down, slow peer, partitioned store, torn
# forwards, breaker heal — plus the ring and forwarding-client suites. Every
# sweep must complete (degraded, never failed) with results byte-identical
# to a single-node run, and every node's store must scrub clean.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'Cluster' ./internal/service

# Stream chaos (CI runs this): the per-job event bus, the SSE surface of
# GET /v1/runs/{id}/events, and the cluster event back-channel — resume
# replays the exact missed suffix, a chaos-slowed subscriber loses events
# to explicit gap markers without ever slowing the executor, a 10k-cell
# sweep streams every terminal event exactly once, fixed-seed cluster chaos
# streams byte-identically, and a watched job's step events match their
# golden. Race detector on, cache off.
stream-chaos:
	$(GO) test -race -count=1 -run 'TestBus|TestSSE|TestClusterPartitionedExecution|TestClusterChaosStreamByteStable|TestClusterEventBackChannel|TestStepEventGolden' ./internal/service
	$(GO) test -race -count=1 -run 'TestReadSSE|TestFormatEvent|TestWatch' ./cmd/bandsim
	$(GO) test -race -count=1 -run 'Writer' ./internal/fault

# The p-scaling workload (columnar engine at p = 10k / 100k / 2^20) plus
# the million-processor heap ceiling test. Divide a size's ns/op by its p
# for the per-processor cost; TestSuperstepFingerprint pins each size's
# model outcome. (A machine runs its processors on one goroutine, so there
# is no per-superstep fan-out benchmark.)
bench-scale:
	$(GO) test -run '^$$' -bench SuperstepScale -benchmem ./internal/bsp
	$(GO) test -run TestScaleMillionProcessors -count=1 .

# One benchmark per registered experiment (BenchmarkExperiment/<id>, quick
# preset, seed 1); each reports the run's simulated model time and superstep
# count as custom metrics (simtime, supersteps) beside ns/op.
bench-tables:
	$(GO) test -run '^$$' -bench=Experiment -benchmem .

# Benchmark smoke: one iteration of each machine's superstep benchmarks and
# of every experiment's sub-benchmark, proving the bench harnesses compile
# and run (CI runs this).
bench-smoke:
	$(GO) test -run '^$$' -bench='Superstep|Experiment' -benchtime=1x -benchmem ./...

# DAG lowering conformance (CI runs this): the work IR and dagsched unit
# suites, the oracle's precedence-invariant tests, and a 200-seed
# precedence replay of the reworked dag family — all under the race
# detector, zero violations required.
dag-verify:
	$(GO) test -race -count=1 ./internal/work/...
	$(GO) test -race -count=1 -run 'Precedence|DAG|Dagsched|CheckIR' ./internal/oracle
	$(GO) run -race ./cmd/bandsim fuzz -seeds 200 -family dag

# Regenerate every paper table (EXPERIMENTS.md quotes these).
experiments:
	$(GO) run ./cmd/bandsim run all

# The reproduction checklist: PASS/FAIL per headline claim.
verify:
	$(GO) run ./cmd/bandsim verify

# CSVs for downstream plotting.
export:
	$(GO) run ./cmd/bandsim export results

# The HTTP run service (job queue + content-addressed run store).
serve:
	$(GO) run ./cmd/bandsim serve

# Seeded workload fuzzing: generated workloads through every invariant
# oracle, ddmin-shrinking any failure ('bandsim fuzz -h' for flags).
fuzz:
	$(GO) run ./cmd/bandsim fuzz -seeds 1000

# CI's fixed-seed smoke block: race detector on, zero violations required,
# and the -json output must be byte-identical across two runs.
fuzz-smoke:
	$(GO) run -race ./cmd/bandsim fuzz -seeds 200 -json > /tmp/parbw_fuzz1.json
	$(GO) run -race ./cmd/bandsim fuzz -seeds 200 -json > /tmp/parbw_fuzz2.json
	cmp /tmp/parbw_fuzz1.json /tmp/parbw_fuzz2.json

clean:
	rm -rf results
