#!/bin/sh
# CI gate: vet, full build, race-enabled tests, and a pinned-seed
# differential fuzz smoke. Run via `make check` or directly.
set -eu

echo '== go vet =='
go vet ./...

# Formatting gate: gofmt -l prints every file whose layout drifted.
echo '== gofmt =='
unformatted=$(gofmt -l cmd internal examples)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:"
	echo "$unformatted"
	exit 1
fi

echo '== go build =='
go build ./...

echo '== go test (tier 1) =='
go test ./...

# Benchmark harness tests: benchmark/ is a nested module (its go.mod
# replaces twe with ../), so the tier-1 `go test ./...` never enters it.
# Same offline toolchain settings as benchmark/run.sh.
echo '== go test (benchmark harness) =='
(cd benchmark && GOTOOLCHAIN=local GOPROXY=off go test ./...)

echo '== go test -race internal =='
go test -race ./internal/...

# Pool wait/wake stress (DESIGN.md §17): a lost wake-up in the pool's
# park/handoff protocol would be a rare hang; fifty race-built
# repetitions under a bounded timeout make it a fast failure instead.
# The wake and steal batteries queue the one-field entries (a future as
# itself, a batch as a slice of futures), so they ride the same line.
echo '== pool stress =='
go test -race -count=50 -timeout 300s ./internal/pool/

# Task lifecycle stress (DESIGN.md §3): a future's done channel exists
# only once a waiter really blocks and is closed only if it exists, and
# the covering effect is built on a body's first spawn, join or
# CoveringContains. A waiter and a finisher that both miss the channel
# would be a rare hang, two closes a rare panic, and a cancel that loses
# the start claim but still skips the body a rare wrong outcome; thirty
# race-built repetitions of the core suite, the lazy-path battery
# included, make each a fast failure.
echo '== core stress =='
go test -race -count=30 -timeout 600s ./internal/core/

# Tree admission stress (DESIGN.md §3): the liveness net stands down on a
# half-submitted task and leaves it to its submitter, and newcomers park
# behind their youngest conflicting elder, so a lost net run or a broken
# wait chain would be a rare hang or a rare out-of-order admission. Thirty
# race-built repetitions of the liveness, ordering, chain, conformance and
# safety-net tests make either a fast failure instead.
echo '== tree stress =='
t0=$(date +%s)
go test -race -count=30 -timeout 300s -run 'TestLivenessNetSkipsHalfSubmittedTask|TestLivenessServePattern|^TestConformance$|TestConformanceOrder|TestFairAdmissionOrder|TestPipelineWaitsAsChain|TestYoungPlacedFirstCycleResolves|TestNoEnabledTasksSafetyNet|TestManyFineGrainTasks|TestDescheduleRemovesEffectsAndWakesWaiters|TestQuiescedAfterMixedExitPaths|TestConformanceLockFree' ./internal/tree/
echo "tree stress: $(($(date +%s) - t0))s wall"

# Cluster relay stress (DESIGN.md §16): the router flushes forwards once
# per client read, and a two-phase round runs on the session's own
# upstreams while later ops flow behind its holds, so a missed flush
# point, a mispaired leg reply or a reordered session would be a rare
# hang, a rare stranded hold or a rare wrong read. Twenty race-built
# repetitions of the flush-point, abort-path, round and load batteries
# make each a fast failure, and the cluster model re-proves that the
# coordinator mutex is what keeps concurrent legs deadlock-free.
echo '== cluster stress =='
t0=$(date +%s)
go test -race -count=20 -timeout 600s -run 'Flush|Abort|TestRound|TestClusterLoad' ./internal/cluster/
go test -count=3 -run Cluster ./internal/spec/
# The member side of the same rounds: a scan sums the store inline in
# its own task, standalone or as a committed prepared hold, so a scan
# that saw a put out of session order or a hold that outlived its
# commit would be a rare wrong sum or a rare hang.
go test -race -count=20 -timeout 300s -run 'Scan|Prepare' ./internal/svc/
echo "cluster stress: $(($(date +%s) - t0))s wall"

# Differential fuzz smoke: pinned seed range so the run is reproducible and
# bounded (~30s incl. build); any divergence exits non-zero with a replay
# command line.
echo '== twe-fuzz smoke =='
go run ./cmd/twe-fuzz -seed 0 -n 300 -schedules 2 -timeout 20s

# Fault-injection smoke (DESIGN.md §10): the same differential harness
# with panics/cancels/deadlines injected into a seed-chosen task subset —
# surviving-store equality, failure classes, oracle, quiescence.
echo '== twe-fuzz -faults smoke =='
go run ./cmd/twe-fuzz -faults -seed 0 -n 120 -schedules 1 -timeout 20s

# Batched-admission smoke (DESIGN.md §12): the same generated programs
# with launches grouped into SubmitBatch calls at seed-derived
# boundaries — identical groups under both schedulers, so store
# equality, the isolation oracle, and quiescence check the batched
# insert path differentially.
echo '== twe-fuzz -batch smoke =='
go run ./cmd/twe-fuzz -batch -seed 0 -n 120 -schedules 1 -timeout 20s

# Observability smoke (DESIGN.md §7): trace two workloads under the
# isolation oracle and validate the Chrome trace / Prometheus outputs
# with twe-trace's built-in structural checkers — no external tools.
echo '== obs smoke =='
go build -o /tmp/twe-trace-ci ./cmd/twe-trace
/tmp/twe-trace-ci -app kmeans -sched tree -par 4 -isolcheck \
	-trace /tmp/twe-ci-kmeans.json -metrics /tmp/twe-ci-kmeans.prom
/tmp/twe-trace-ci -app server -sched naive -par 4 -isolcheck \
	-trace /tmp/twe-ci-server.json -metrics /tmp/twe-ci-server.prom
/tmp/twe-trace-ci -faults \
	-trace /tmp/twe-ci-faults.json -metrics /tmp/twe-ci-faults.prom
/tmp/twe-trace-ci -check /tmp/twe-ci-kmeans.json
/tmp/twe-trace-ci -check /tmp/twe-ci-server.json
/tmp/twe-trace-ci -check /tmp/twe-ci-faults.json
/tmp/twe-trace-ci -checkmetrics /tmp/twe-ci-kmeans.prom
/tmp/twe-trace-ci -checkmetrics /tmp/twe-ci-server.prom
/tmp/twe-trace-ci -checkmetrics /tmp/twe-ci-faults.prom

# Service-layer smoke (DESIGN.md §11): three twe-serve daemons on
# ephemeral ports driven by the closed-loop load generator — correctness
# under the isolation oracle (writes BENCH_serve.json), forced overload
# with -expect-shed, and fault-mode effect release. Each phase asserts a
# clean SIGTERM drain audit.
echo '== serve smoke =='
BENCH_OUT=/tmp/BENCH_serve.json ./scripts/serve-smoke.sh

# Batched-admission wire smoke (DESIGN.md §12): twe-serve daemons driven
# by twe-load -batch 4 so every data op arrives inside a batch frame and
# enters the runtime through SubmitBatch — once clean, once under
# -faults (half-sent batches must release every admitted effect).
echo '== batch smoke =='
./scripts/batch-smoke.sh

# Wire-protocol v2 smoke (DESIGN.md §13): the codec battery under -race
# (golden frames, intern table, cross-codec parity, pinned fuzz-corpus
# replay), live negotiation with pure-v2 and mixed v1/v2 clients, and
# the same-seed v1-vs-v2 bench pair (writes BENCH_serve_v2.json).
echo '== proto smoke =='
BENCH_V2_OUT=/tmp/BENCH_serve_v2.json ./scripts/proto-smoke.sh

# Request-tracing smoke (DESIGN.md §14): the tracing/attribution battery
# under -race (contention tree, span goldens, options-frame negotiation,
# zero-alloc gates), a live traced daemon whose /debug/twe must
# attribute nonzero stall to the shared Shard subtree, pprof/expvar
# probes, Chrome-trace req-span validation, and the same-seed
# tracing-off-vs-on overhead pair (writes BENCH_prof.json).
echo '== prof smoke =='
BENCH_PROF_OUT=/tmp/BENCH_prof.json ./scripts/prof-smoke.sh

# Executable admission-spec smoke (DESIGN.md §15): exhaustively
# model-check every preset configuration, prove the seeded mutations
# are caught with counterexamples, run the pinned-seed differential
# fuzz with the trace-refinement oracle attached, and round-trip a
# real workload's event-log dump through twe-spec -refine.
echo '== spec smoke =='
./scripts/spec-smoke.sh

# Effect-sharded cluster smoke (DESIGN.md §16): exhaustive cross-shard
# two-phase model checking, a router fronting two shard daemons (2pc and
# serial cross lanes, fault-mode release, fleet accounting identities,
# SIGTERM drain audits fleet-wide), and the single-vs-two-shard
# scale-out bench pair (writes BENCH_cluster.json, ratio gated >= 1.7).
echo '== cluster smoke =='
BENCH_CLUSTER_OUT=/tmp/BENCH_cluster.json ./scripts/cluster-smoke.sh

# Lock-free admission smoke (DESIGN.md §17): fast-path stress batteries
# under -race, exhaustive epoch-snapshot model exploration with every
# seeded protocol break caught, race-built naive/tree/tree-lockfree
# differential fuzz over the fast/slow boundary, and the >= 1.2x
# fast-path submission perf gate.
echo '== lockfree smoke =='
./scripts/lockfree-smoke.sh

# Perf snapshots of the in-process workloads via the -apps filter:
# BENCH_server.json plus BENCH_batch.json (batched vs per-task
# submission throughput; schemas in EXPERIMENTS.md).
echo '== twe-bench -json (server,batch) =='
go run ./cmd/twe-bench -json /tmp/twe-ci-bench -apps server,batch -threads 1,4 -reps 2

echo 'ci: OK'
