# Developer entry points; CI runs the same commands.
#
# CI (.github/workflows/ci.yml) runs these as separate jobs:
#
#   lint         gofmt -l (must print nothing), go vet, staticcheck,
#                `GOOS=darwin go vet` of transport and server plus
#                `GOOS=windows go build ./...` (the non-Linux,
#                per-datagram wire keeps compiling), and vet + test of
#                the separate bench/ module
#   test         build + test
#   race         `make race` — includes nic/loggops/fabric now that
#                shards execute those models concurrently, and the
#                transport's ARQ endpoints; then reruns core's cache
#                eviction hammer at -count=10 (eviction raced against
#                instantiate/run/Release on shared, evicting caches)
#                and the server's post-buffer ownership test at
#                -count=10 (a served post's transport buffer passes from
#                the dispatcher to the session worker, which releases it)
#   loss-matrix  transport + UDP-backend differential tests under -race
#                at 0%, 1% and 10% injected loss (SPINDDT_LOSS_PCT pins
#                the rate per matrix shard; see `make loss-matrix`)
#   bench-gate   `make bench-check` — reruns the core benchmarks
#                (best-of-$(BENCH_COUNT) per benchmark) and gates them
#                against the checked-in BENCH_BASELINE.json (exit
#                nonzero past the tolerance), so perf regressions fail
#                the PR; the fresh snapshot is still uploaded as an
#                artifact alongside the bench-smoke snapshot
#   determinism  `make determinism` — renders every figure/table twice,
#                at GOMAXPROCS=1 and GOMAXPROCS=4 (the executor width
#                follows GOMAXPROCS), and diffs both against the golden
#                outputs in testdata/golden/ (byte-identical or the job
#                fails); the plans snapshot renders once, since plans
#                never touch the executor
#   server-soak  `make soak` — >= 64 concurrent client sessions against
#                an in-process spinsimd session daemon over seeded
#                fault injection, race-clean, one SPINDDT_LOSS_PCT rate
#                per matrix shard; every delivered buffer is
#                byte-verified server-side
#   fuzz-smoke   `make fuzz-smoke` — a FUZZTIME fuzzing budget per wire
#                decoder: the server request/response framing plus the
#                transport frame and block-program decoders (seed
#                corpora committed under each package's testdata/fuzz/)
#
# Refresh the baseline with `make bench-baseline` (on a quiet machine) and
# the goldens with `make golden` whenever an intentional model change
# shifts numbers; commit both.

GO ?= go
BENCH_DATE := $(shell date +%F)
# The core perf benchmarks recorded in BENCH_<date>.json and gated by
# bench-check: the end-to-end simulation hot path, the datatype engine,
# the event-engine microbench, the sharded cluster simulation (serial
# executor baseline + all-cores executor), the session API (committed
# handle reuse + the batched alltoall endpoint pass), the symmetric
# device model (sender-side handle reuse + the sharded halo exchanges
# at 8 and 64 ranks), the reliable transport's steady-state message
# rate (over the in-memory pipe, and over loopback UDP where the wire's
# syscalls show), the session daemon's full client-session cycle
# (open/commit/post/flush/close over the in-memory pipe), the lowered
# execution-plan kernels (pack/unpack and gather resolve per plan kind),
# the region walk the host cost model runs on every served send and
# receive (DDTForEachBlock), and the receive verify kernel per plan kind
# (PlanVerify). The last two are recorded, but gated only once the
# baseline is re-recorded, since bench-check gates the benchmarks the
# baseline lists.
BENCH_CORE := BenchmarkSimulationRWCP1MiB|BenchmarkSimulationSpecialized1MiB|BenchmarkDDTPackUnpack|BenchmarkEventEngine|BenchmarkSimulationClusterSerial|BenchmarkSimulationSharded|BenchmarkSessionPostReuse|BenchmarkAlltoall8|BenchmarkSessionSendReuse|BenchmarkHaloExchange8|BenchmarkHaloExchange64|BenchmarkHaloExchange256|BenchmarkOffloadInstantiate|BenchmarkTransportThroughput|BenchmarkTransportUDP|BenchmarkServerThroughput|BenchmarkPlanPack|BenchmarkPlanGather|BenchmarkDDTForEachBlock|BenchmarkPlanVerify
# Allowed fractional ns/op regression vs BENCH_BASELINE.json.
TOLERANCE ?= 0.25
# Allowed fractional B/op and allocs/op regression vs BENCH_BASELINE.json.
# Memory counters are near-deterministic, so the gate is much tighter
# than the timing one: it is what holds the exchange path's streamed-
# chunk/pooled-state memory diet in place.
MEM_TOLERANCE ?= 0.10
# Gate runs take the best of BENCH_COUNT repetitions per benchmark
# (min ns/op): single runs of the allocation-heavy benchmarks are too
# noisy on a 1-core CI machine to gate at this tolerance.
BENCH_COUNT ?= 3
# Workload of the golden figure renders (kept moderate so the determinism
# job stays fast; the bench smoke still runs paper-scale sizes).
GOLDEN_ARGS := -fig all -msg 1048576

# SOAK_RATES are the injected-loss percentages the server soak runs at
# (CI pins one per shard; a local `make soak` covers the matrix).
SOAK_RATES ?= 0 1 10
# FUZZTIME is the per-target budget of `make fuzz-smoke`.
FUZZTIME ?= 30s

.PHONY: build test race loss-matrix soak fuzz-smoke bench bench-all bench-check bench-baseline golden plans-golden determinism

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# race runs the concurrent packages under the race detector, then the
# cache eviction hammer and the server's post-buffer ownership test ten
# times each: races on state several goroutines reach (evicting caches; a
# post's transport buffer handed from the dispatcher to the session
# worker) only show up across many interleavings.
race:
	$(GO) test -race ./internal/ddt/ ./internal/core/ ./internal/sim/ ./internal/experiments/ ./internal/nic/ ./internal/loggops/ ./internal/fabric/ ./internal/transport/ ./internal/server/
	$(GO) test -race -count=10 -run '^TestCacheEvictionHammer$$' ./internal/core/
	$(GO) test -race -count=10 -run '^TestServerPostBufferOwnership$$' ./internal/server/

# loss-matrix runs the transport and UDP-backend differential tests under
# -race at every loss rate of the matrix (each CI shard pins one rate via
# SPINDDT_LOSS_PCT).
loss-matrix:
	for pct in 0 1 10; do \
		SPINDDT_LOSS_PCT=$$pct $(GO) test -race -count=1 \
			-run 'TestLossMatrix|TestUDPBackend' \
			./internal/transport/ ./internal/core/ || exit 1; \
	done

# soak is the server-soak CI gate: >= 64 concurrent client sessions of
# mixed commit/post/flush traffic with random datatypes against one
# in-process spinsimd, under seeded fault injection on both directions,
# race-clean, at each SOAK_RATES loss percentage. Every delivered
# buffer is byte-verified against the reference unpack of the exact
# wire stream.
soak:
	for pct in $(SOAK_RATES); do \
		SPINDDT_LOSS_PCT=$$pct $(GO) test -race -count=1 \
			-run 'TestServerSoak' ./internal/server/ || exit 1; \
	done

# fuzz-smoke gives each wire decoder a FUZZTIME fuzzing budget (one
# -fuzz run per target; go test allows a single target per invocation).
# Seed corpora are committed under each package's testdata/fuzz/ and
# refreshed with SPINDDT_WRITE_CORPUS=1.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRequestDecode$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzResponseDecode$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzBlockProgramDecode$$' -fuzztime $(FUZZTIME) ./internal/transport/

# bench records the core perf trajectory to BENCH_<date>.json (multiple
# iterations, stable numbers).
bench:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_CORE)' -benchtime 2s -out BENCH_$(BENCH_DATE).json

# bench-all runs every figure and component benchmark once (the CI smoke
# configuration) and records it. -p 1 keeps package binaries from timing
# against each other (benchjson -bench does the same).
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem -p 1 ./... | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json

# bench-check reruns the core benchmarks and fails if any is more than
# TOLERANCE slower — or allocates more than MEM_TOLERANCE past — the
# committed baseline (the CI bench-gate).
bench-check:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_CORE)' -benchtime 2s -count $(BENCH_COUNT) -out BENCH_check.json -compare BENCH_BASELINE.json -tolerance $(TOLERANCE) -mem-tolerance $(MEM_TOLERANCE)

# bench-baseline refreshes the committed baseline snapshot.
bench-baseline:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_CORE)' -benchtime 2s -count $(BENCH_COUNT) -out BENCH_BASELINE.json

# golden refreshes the checked-in figure/table outputs the determinism
# job diffs against.
golden:
	$(GO) run ./cmd/ddtbench $(GOLDEN_ARGS) > testdata/golden/ddtbench.txt

# plans-golden refreshes the execution-plan snapshot: the disassembled
# pack/unpack plan and gather resolver of every application datatype.
plans-golden:
	$(GO) run ./cmd/ddtbench -fig plans > testdata/golden/plans.txt

# determinism renders every figure/table with one executor worker and with
# four (the width follows GOMAXPROCS) and requires byte-identical output,
# pinned to the goldens. The plans snapshot renders once: plans never touch
# the executor. Scratch renders land in the gitignored out/ directory, never
# at the repo root.
determinism:
	@mkdir -p out
	GOMAXPROCS=1 $(GO) run ./cmd/ddtbench $(GOLDEN_ARGS) > out/ddtbench-w1.out
	GOMAXPROCS=4 $(GO) run ./cmd/ddtbench $(GOLDEN_ARGS) > out/ddtbench-w4.out
	diff -u testdata/golden/ddtbench.txt out/ddtbench-w1.out
	diff -u testdata/golden/ddtbench.txt out/ddtbench-w4.out
	$(GO) run ./cmd/ddtbench -fig plans > out/plans.out
	diff -u testdata/golden/plans.txt out/plans.out
	@echo "determinism: 1-worker and 4-worker outputs match the goldens"
