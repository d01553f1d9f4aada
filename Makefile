GO ?= go

.PHONY: all build test check fuzz bench bench-diff microbench artifacts

all: build

build:
	$(GO) build ./...

# test is the tier-1 lane; -shuffle=on randomizes test and example order
# within each package so order dependencies cannot hide (go test prints the
# seed as `-test.shuffle N` on failure — rerun with that value to reproduce).
test:
	$(GO) test -shuffle=on ./...

# check is the PR gate: full build, vet, and the concurrency-sensitive
# packages (the engine, the parallel experiment runner, the metamorphic
# harness, and the lock-free MMU bookkeeping in tlb, pagetable and core)
# under the race detector. -short selects the reduced experiment
# grids and fuzz corpus so the race-instrumented pass stays within CI
# budgets even at -count=2; the full grids run race-free via `make test`.
# The UnderLoad lane reruns the multi-vCPU determinism tests at
# GOMAXPROCS >= 4 with a busy loop competing for the host's CPUs.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -short ./internal/vclock/... ./internal/experiments/... ./internal/check/... ./internal/tlb/ ./internal/pagetable/ ./internal/core/
	$(GO) test -race -count=3 -run 'UnderLoad' ./internal/vclock/ ./internal/backend/

# fuzz sweeps the full metamorphic corpus (8 variants per seed, including
# dirty-page logging armed) plus the backend differential and golden-digest
# grids without the race detector's slowdown.
fuzz:
	$(GO) test -count=1 -run 'TestMetamorphicCorpus|TestDirtyLogVariantDifferential' ./internal/check/
	$(GO) test -count=1 -run 'TestRangedAccessEquivalence|TestForkTeardownEquivalence|TestDirtyLog|TestVMAMutation' ./internal/backend/

# bench regenerates BENCH_pr16.json: the TouchRange, ColdFault,
# MultiVCPUContention, and DirtyScan grids plus the PreCopy experiment
# benchmark across all five MMU backends, and the serial default-grid wall
# clock (compared against BENCH_pr15.json's baseline).
bench:
	$(GO) run ./cmd/benchreport -out BENCH_pr16.json

# bench-diff compares the two most recent bench artifacts cell by cell and
# fails on regressions beyond the default threshold; it refuses to compare
# artifacts measured at different benchtimes or host parallelism.
bench-diff:
	$(GO) run ./cmd/benchreport -diff BENCH_pr15.json BENCH_pr16.json

# microbench runs the low-level hot-path benchmarks of the simulator core.
microbench:
	$(GO) test -bench . -benchmem ./internal/vclock/ ./internal/tlb/ ./internal/pagetable/

# artifacts regenerates the captured default-scale experiment output.
artifacts:
	$(GO) run ./cmd/pvmbench -exp all -scale default > results_default.txt
