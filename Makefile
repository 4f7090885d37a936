# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: build test race bench bench-diff bench-race fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# BENCHTIME scales benchmark effort: CI smoke runs use 1x, local perf
# tracking should use the default (or higher) for stable numbers.
BENCHTIME ?= 1s

# bench records the perf trajectory of the hot paths — the engine's
# epoch-keyed cache (must stay O(1) in table size), the maintained-sample
# fast path, the shared-sample batch, BenchmarkAdaptiveVsFixed's
# rows-sampled-for-equal-accuracy comparison (rows/est + err_pts custom
# metrics), BenchmarkAdaptiveStratifiedZipf's uniform-vs-stratified
# rows-to-±2% pairs on zipf keys, the sort subsystem (BenchmarkPrepareSort's radix-vs-stdsort
# pairs, BenchmarkTrueCFParallel's worker sweep), the telemetry layer
# (BenchmarkObsOverhead's instrumented-vs-noop cost per metric update),
# the fault-injection switchboard (BenchmarkFaultPointDisarmed's
# zero-cost disarmed contract), and table materialization
# (BenchmarkGenerate's slab layout, allocs/op) — as a machine-readable
# artifact.
bench:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/engine ./internal/core ./internal/workload ./internal/obs ./internal/faults . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson > BENCH_engine.json
	@echo "wrote BENCH_engine.json"

# bench-diff runs the same benchmarks and compares them against the
# committed BENCH_engine.json, exiting nonzero on a >25% ns/op or
# allocs/op regression — and on ANY allocs/op growth in
# BenchmarkEstimateSampleSizes, whose zero-alloc steady state is a hard
# contract of the estimation hot path. CI runs it as a non-blocking report
# (1x iterations are too noisy to gate on); run locally with the default
# BENCHTIME before sending a perf-sensitive change.
bench-diff:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' ./internal/engine ./internal/core ./internal/workload ./internal/obs ./internal/faults . \
		| $(GO) run ./cmd/benchjson -diff BENCH_engine.json -allocs-exact 'BenchmarkEstimateSampleSizes'

# bench-race drives the estimation hot path — pooled codec scratch,
# parallel page compression, shared arenas — the telemetry instruments,
# the stratified adaptive loop (per-stratum resumable streams extending
# concurrently), and the serving-path concurrency machinery (snapshot
# publication racing estimator reads in ConcurrentMixed, the coalescing
# flight group absorbing a CoalescedStampede) under the race detector so
# a data race in pooling, fan-out, stream extension, snapshot swap,
# singleflight hand-off, or metric updates cannot land silently.
bench-race:
	$(GO) test -race -bench EstimateSampleSizes -benchtime 1x -run '^$$' .
	$(GO) test -race -bench ObsOverhead -benchtime 1x -run '^$$' ./internal/obs
	$(GO) test -race -bench AdaptiveStratifiedZipf -benchtime 1x -run '^$$' ./internal/engine
	$(GO) test -race -bench 'ConcurrentMixed|CoalescedStampede' -benchtime 1x -run '^$$' ./internal/engine
