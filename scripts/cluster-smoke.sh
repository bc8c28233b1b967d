#!/bin/sh
# cluster-smoke: end-to-end gate for the effect-sharded cluster
# (DESIGN.md §16). Race-built binaries throughout; a router fronting two
# twe-serve shard daemons on ephemeral ports:
#
#   1. spec — exhaustively model-check every cross-shard two-phase
#      preset (C1..C5 + deadlock, violation-free), then prove the seeded
#      mutations are caught with counterexamples.
#   2. correctness — two shards + router on the 2pc cross lane, mixed
#      v1/v2 clients with scans (cross-shard) and conflicting puts; the
#      load generator's per-connection and exact final-state oracles
#      must be clean, and the fleet snapshot must satisfy the routing
#      accounting identities (-cluster-url).
#   3. cross-shard conflict — the serial stop-the-world lane under a
#      high conflict ratio and frequent scans, then a fault run on the
#      2pc lane (mid-run disconnects + cancels must release effects
#      fleet-wide).
#   4. pipelined oracle — four v2 connections, sixteen requests in
#      flight each, a scan every sixteenth op, on both cross lanes: a
#      round must not reorder a session's ops around it.
#   5. scale-out bench — the same -hold latency-bound workload against
#      one node and against the two-shard fleet at conflict 0; writes
#      BENCH_cluster.json and asserts scaleout_ratio >= 1.7.
#
# Every daemon is stopped with SIGTERM and must pass its drain audit
# (router: responses flushed, coordinator shut down, no leaked
# in-flight; shards: runtime quiesced, isolation oracle clean).
#
# Run via `make cluster-smoke` or directly. Exits non-zero on failure.
set -eu

TMP="$(mktemp -d /tmp/twe-cluster-smoke.XXXXXX)"
BENCH_CLUSTER_OUT="${BENCH_CLUSTER_OUT:-$TMP/BENCH_cluster.json}"
SERVE="$TMP/twe-serve"
ROUTER="$TMP/twe-router"
LOAD="$TMP/twe-load"
SPEC="$TMP/twe-spec"
S0_PID=""
S1_PID=""
R_PID=""

cleanup() {
	[ -n "$R_PID" ] && kill "$R_PID" 2>/dev/null || true
	[ -n "$S0_PID" ] && kill "$S0_PID" 2>/dev/null || true
	[ -n "$S1_PID" ] && kill "$S1_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -race -o "$SERVE" ./cmd/twe-serve
go build -race -o "$ROUTER" ./cmd/twe-router
go build -race -o "$LOAD" ./cmd/twe-load
go build -race -o "$SPEC" ./cmd/twe-spec
# Plain builds for the bench phase only — race instrumentation skews
# absolute throughput; correctness phases stay race-instrumented.
go build -o "$SERVE.nr" ./cmd/twe-serve
go build -o "$ROUTER.nr" ./cmd/twe-router
go build -o "$LOAD.nr" ./cmd/twe-load

# Binaries start_fleet launches; the bench phase points these at the
# plain builds.
BIN_SERVE="$SERVE"
BIN_ROUTER="$ROUTER"

# wait_file <path>...: poll until every file is non-empty.
wait_file() {
	for f in "$@"; do
		i=0
		while [ ! -s "$f" ]; do
			i=$((i + 1))
			[ "$i" -gt 100 ] && { echo "cluster-smoke: $f did not appear"; exit 1; }
			sleep 0.1
		done
	done
}

# start_fleet <tag> <cross-lane> <extra shard flags...>: two shard
# daemons plus a router proxying them, all on ephemeral ports.
start_fleet() {
	tag="$1"; lane="$2"; shift 2
	rm -f "$TMP/a0" "$TMP/a1" "$TMP/m0" "$TMP/m1" "$TMP/raddr" "$TMP/caddr"
	"$BIN_SERVE" -addr 127.0.0.1:0 -addr-file "$TMP/a0" \
		-metrics-addr 127.0.0.1:0 -metrics-addr-file "$TMP/m0" \
		-shard-id 0 -advertise 127.0.0.1 -sched tree -par 4 -isolcheck \
		-drain-timeout 30s "$@" >"$TMP/$tag-s0.log" 2>&1 &
	S0_PID=$!
	"$BIN_SERVE" -addr 127.0.0.1:0 -addr-file "$TMP/a1" \
		-metrics-addr 127.0.0.1:0 -metrics-addr-file "$TMP/m1" \
		-shard-id 1 -advertise 127.0.0.1 -sched tree -par 4 -isolcheck \
		-drain-timeout 30s "$@" >"$TMP/$tag-s1.log" 2>&1 &
	S1_PID=$!
	wait_file "$TMP/a0" "$TMP/a1" "$TMP/m0" "$TMP/m1"
	"$BIN_ROUTER" -addr 127.0.0.1:0 -addr-file "$TMP/raddr" \
		-control-addr 127.0.0.1:0 -control-addr-file "$TMP/caddr" \
		-members "$(cat "$TMP/a0"),$(cat "$TMP/a1")" \
		-member-debug "http://$(cat "$TMP/m0"),http://$(cat "$TMP/m1")" \
		-cross-lane "$lane" -drain-timeout 30s >"$TMP/$tag-r.log" 2>&1 &
	R_PID=$!
	wait_file "$TMP/raddr" "$TMP/caddr"
}

# stop_fleet <tag>: SIGTERM the router first (it owes the responses),
# then the shards; every drain audit must pass.
stop_fleet() {
	tag="$1"
	kill -TERM "$R_PID"
	if ! wait "$R_PID"; then
		echo "cluster-smoke: $tag: router dirty drain"
		cat "$TMP/$tag-r.log"
		exit 1
	fi
	R_PID=""
	for s in 0 1; do
		eval "pid=\$S${s}_PID"
		kill -TERM "$pid"
		if ! wait "$pid"; then
			echo "cluster-smoke: $tag: shard $s dirty drain"
			cat "$TMP/$tag-s$s.log"
			exit 1
		fi
	done
	S0_PID=""; S1_PID=""
	grep drained "$TMP/$tag-r.log" "$TMP/$tag-s0.log" "$TMP/$tag-s1.log"
}

echo '== cluster-smoke 1/5: two-phase spec (explore all presets + mutations) =='
"$SPEC" -explore -cluster
"$SPEC" -explore -cluster -preset cross-conflict -mutate unordered-prepare -expect-violation >/dev/null
echo "cluster-smoke: unordered-prepare mutation caught"
"$SPEC" -explore -cluster -preset cross-conflict-parallel -mutate concurrent-rounds -expect-violation >/dev/null
echo "cluster-smoke: parallel legs without the coordinator mutex caught"
"$SPEC" -explore -cluster -preset session-scan-parallel -mutate prepare-on-foreign-session -expect-violation >/dev/null
echo "cluster-smoke: prepare-on-foreign-session mutation caught"
"$SPEC" -explore -cluster -preset session-rounds-parallel -mutate commit-before-all-acked -expect-violation >/dev/null
echo "cluster-smoke: commit-before-all-acked mutation caught"

echo '== cluster-smoke 2/5: correctness (2 shards, 2pc lane, mixed proto) =='
start_fleet correctness 2pc
"$LOAD" -addr-file "$TMP/raddr" -conns 16 -requests 40 -pipeline 4 \
	-conflict 0.25 -scan-every 10 -seed 7 -proto mixed \
	-cluster-url "http://$(cat "$TMP/caddr")"
stop_fleet correctness

echo '== cluster-smoke 3/5: cross-shard conflict (serial lane) + faults (2pc) =='
start_fleet serial serial
"$LOAD" -addr-file "$TMP/raddr" -conns 12 -requests 30 -pipeline 4 \
	-conflict 0.5 -scan-every 5 -seed 9 \
	-cluster-url "http://$(cat "$TMP/caddr")"
stop_fleet serial
start_fleet faults 2pc
"$LOAD" -addr-file "$TMP/raddr" -conns 12 -requests 30 -pipeline 4 \
	-conflict 0.25 -scan-every 9 -seed 11 -faults \
	-cluster-url "http://$(cat "$TMP/caddr")"
stop_fleet faults

echo '== cluster-smoke 4/5: pipelined oracle (2pc and serial lanes) =='
for lane in 2pc serial; do
	start_fleet "pipelined-$lane" "$lane"
	"$LOAD" -addr-file "$TMP/raddr" -conns 4 -pipeline 16 -proto v2 \
		-requests 5000 -scan-every 16 -seed 15 \
		-cluster-url "http://$(cat "$TMP/caddr")" | tee "$TMP/pipelined-$lane.out"
	grep -q 'oracle clean' "$TMP/pipelined-$lane.out" || { echo "cluster-smoke: $lane pipelined oracle not clean"; exit 1; }
	stop_fleet "pipelined-$lane"
done

echo '== cluster-smoke 5/5: scale-out bench (-hold 10ms, conflict 0, open mode) =='
# Latency-bound on purpose: every op sleeps 10ms in the body, and each
# connection's ops serialize on its session effect — a connection is one
# serial lane on a single node but splits into one lane per member
# through the router (per-(client,member) upstream sessions). Two burst
# connections at conflict 0 measure exactly that lane doubling, not the
# CI machine's CPUs. Plain (non-race) builds: race instrumentation
# skews absolute throughput.
BIN_SERVE="$SERVE.nr"
BIN_ROUTER="$ROUTER.nr"
bench_pair() {
	rm -f "$TMP/b0"
	"$SERVE.nr" -addr 127.0.0.1:0 -addr-file "$TMP/b0" -sched tree -par 4 \
		-isolcheck -hold 10ms -drain-timeout 30s >"$TMP/bench-single.log" 2>&1 &
	S0_PID=$!
	wait_file "$TMP/b0"
	"$LOAD.nr" -addr-file "$TMP/b0" -mode open -conns 2 -requests 200 \
		-conflict 0 -scan-every 0 -add-frac -1 -seed 13 \
		-json "$TMP/BENCH_single.json"
	kill -TERM "$S0_PID"
	wait "$S0_PID" || { echo "cluster-smoke: bench baseline dirty drain"; cat "$TMP/bench-single.log"; exit 1; }
	S0_PID=""
	base=$(grep -o '"throughput_rps": *[0-9.e+-]*' "$TMP/BENCH_single.json" | head -1 | sed 's/.*: *//')
	echo "cluster-smoke: single-node baseline ${base} rps"

	start_fleet bench 2pc -hold 10ms
	"$LOAD.nr" -addr-file "$TMP/raddr" -mode open -conns 2 -requests 200 \
		-conflict 0 -scan-every 0 -add-frac -1 -seed 13 \
		-cluster-url "http://$(cat "$TMP/caddr")" -baseline-rps "$base" \
		-json "$BENCH_CLUSTER_OUT"
	stop_fleet bench
	[ -s "$BENCH_CLUSTER_OUT" ] || { echo "cluster-smoke: $BENCH_CLUSTER_OUT missing"; exit 1; }
	ratio=$(grep -o '"scaleout_ratio": *[0-9.e+-]*' "$BENCH_CLUSTER_OUT" | sed 's/.*: *//')
	echo "cluster-smoke: wrote $BENCH_CLUSTER_OUT (scale-out ratio ${ratio}x over ${base} rps)"
}
bench_pair
if ! awk "BEGIN{exit !($ratio >= 1.7)}"; then
	echo "cluster-smoke: ratio $ratio below 1.7, retrying the bench pair once"
	bench_pair
	awk "BEGIN{exit !($ratio >= 1.7)}" || {
		echo "cluster-smoke: scale-out ratio $ratio below 1.7"
		cat "$BENCH_CLUSTER_OUT"
		exit 1
	}
fi

echo 'cluster-smoke: OK'
