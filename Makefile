GO ?= go

.PHONY: build test race vet fuzz faults obs-smoke serve serve-smoke batch-smoke proto-smoke prof-smoke spec-smoke cluster-smoke proto-fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# Pinned-seed differential fuzz smoke (see DESIGN.md §6).
fuzz:
	$(GO) run ./cmd/twe-fuzz -seed 0 -n 300 -schedules 2 -timeout 20s

# Fault-tolerance gate (see DESIGN.md §10): the fault-injection property
# tests plus every package with a failure exit path, twice, under -race,
# then a pinned-seed fault-mode differential fuzz.
faults:
	$(GO) test -race -count=2 ./internal/faultinject/ ./internal/core/ \
		./internal/pool/ ./internal/dyneff/ ./internal/naive/ ./internal/tree/ \
		./internal/apps/server/
	$(GO) run ./cmd/twe-fuzz -faults -seed 0 -n 150 -schedules 1 -timeout 20s

# Observability smoke (see DESIGN.md §7): run two workloads under the
# tracer + isolation oracle, then structurally validate the emitted
# Chrome trace and Prometheus dump; obs/core tests run under -race. The
# outputs go to a private directory removed on exit.
obs-smoke:
	$(GO) test -race ./internal/obs/ ./internal/core/
	set -e; d=$$(mktemp -d "$${TMPDIR:-/tmp}/twe-obs-smoke.XXXXXX"); \
	trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/twe-trace" ./cmd/twe-trace; \
	"$$d/twe-trace" -app kmeans -sched tree -par 4 -isolcheck \
		-trace "$$d/kmeans.json" -metrics "$$d/kmeans.prom"; \
	"$$d/twe-trace" -app server -sched naive -par 4 -isolcheck \
		-trace "$$d/server.json" -metrics "$$d/server.prom"; \
	"$$d/twe-trace" -check "$$d/kmeans.json"; \
	"$$d/twe-trace" -check "$$d/server.json"; \
	"$$d/twe-trace" -checkmetrics "$$d/kmeans.prom"; \
	"$$d/twe-trace" -checkmetrics "$$d/server.prom"

# Run the twe-serve daemon in the foreground on a fixed port (see
# DESIGN.md §11); drive it from another shell, e.g.
#   go run ./cmd/twe-load -addr 127.0.0.1:7270 -conns 64
# Ctrl-C drains gracefully and prints the audit summary.
serve:
	$(GO) run ./cmd/twe-serve -addr 127.0.0.1:7270 -sched tree -par 4 \
		-isolcheck -metrics-addr 127.0.0.1:7271

# Service-layer gate (see DESIGN.md §11): svc tests under -race, then the
# three-phase end-to-end smoke (correctness under the isolation oracle,
# forced overload with -expect-shed, fault-mode effect release).
serve-smoke:
	$(GO) test -race ./internal/svc/
	./scripts/serve-smoke.sh

# Batched-admission gate (see DESIGN.md §12): the batch unit/parity/
# conformance tests under -race, a pinned-seed batch-mode differential
# fuzz, then the end-to-end smoke driving batch wire frames (including
# under -faults) against live twe-serve daemons.
batch-smoke:
	$(GO) test -race -run Batch ./internal/core/ ./internal/naive/ \
		./internal/tree/ ./internal/svc/ ./internal/schedfuzz/
	$(GO) run ./cmd/twe-fuzz -batch -seed 0 -n 150 -schedules 1 -timeout 20s
	./scripts/batch-smoke.sh

# Wire-protocol v2 gate (see DESIGN.md §13): the codec test battery
# under -race (golden frames, effect-intern table, cross-codec parity,
# pinned fuzz corpus replay), then live negotiation with mixed v1/v2
# clients, then the same-seed v1-vs-v2 bench pair.
proto-smoke:
	./scripts/proto-smoke.sh

# Request-tracing + contention-attribution gate (see DESIGN.md §14):
# the tracing battery under -race, a live traced daemon gated on
# /debug/twe attribution, and the tracing-off-vs-on overhead pair
# (writes BENCH_prof.json).
prof-smoke:
	./scripts/prof-smoke.sh

# Executable admission-spec gate (see DESIGN.md §15): the model
# checker + refinement-oracle battery under -race, exhaustive
# exploration of every preset (plus mutation catching), the
# refinement-checked differential fuzz, and an event-log dump round
# trip through twe-spec -refine.
spec-smoke:
	./scripts/spec-smoke.sh

# Effect-sharded cluster gate (see DESIGN.md §16): the routing property
# tests + router integration battery under -race, then the end-to-end
# smoke (cross-shard spec exploration, a router fronting two shard
# daemons on both cross lanes, fault-mode release, SIGTERM drain audits
# fleet-wide, and the single-vs-two-shard scale-out bench pair that
# writes BENCH_cluster.json).
cluster-smoke:
	$(GO) test -race ./internal/cluster/ ./internal/spec/
	./scripts/cluster-smoke.sh

# Open-ended coverage-guided fuzzing of the v2 frame decoders (the
# pinned corpus replays in ordinary test runs; this explores beyond it).
proto-fuzz:
	$(GO) test ./internal/svc -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 60s
	$(GO) test ./internal/svc -run '^$$' -fuzz FuzzEffectTableOps -fuzztime 30s

check:
	./ci.sh
