#!/bin/sh
# serve-smoke: end-to-end gate for the service layer (DESIGN.md §11).
# Six phases against real twe-serve daemons on ephemeral ports:
#
#   1. correctness — tree scheduler under the isolation oracle, 32
#      pipelined connections with scans and accumulator adds; the load
#      generator's per-connection and final-state oracles must be clean,
#      the Prometheus scrape non-empty with the serve families present,
#      BENCH_serve.json written, and the SIGTERM drain audit clean.
#   2. forced overload — tiny in-flight bound and a 300µs deadline;
#      shedding/backpressure must actually be observed (-expect-shed)
#      with exact served+shed accounting, and the drain still clean.
#   3. faults — mid-run disconnects and wire cancels; every effect must
#      be released (server back to idle, no leaked in-flight gauge).
#   4. protocol v2 — phase 1's exact seeded workload over the binary
#      codec (-proto v2, DESIGN.md §13) against a fresh daemon: the same
#      oracles must hold and the drained summary must show only v2
#      connections. scripts/proto-smoke.sh is the deeper v2 gate.
#   5. trace on request — a daemon started with -trace alone (no
#      -req-trace, no -trace-events) must still build its event ring
#      and write a Chrome trace that passes `twe-trace -check` with a
#      nonzero span count; default daemons build no ring (DESIGN.md §7).
#   6. pipelined oracle — 4 v2 connections keep 16 ops in flight each
#      over 5000 requests with scans; every get and scan must see its own
#      session's latest writes, which holds only if the tree admits
#      conflicting tasks in submission order (DESIGN.md §3).
#
# Run via `make serve-smoke` or directly. Exits non-zero on any failure.
set -eu

TMP="$(mktemp -d /tmp/twe-serve-smoke.XXXXXX)"
BENCH_OUT="${BENCH_OUT:-$TMP/BENCH_serve.json}"
SERVE="$TMP/twe-serve"
LOAD="$TMP/twe-load"
TRACE="$TMP/twe-trace"
SRV_PID=""

cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$SERVE" ./cmd/twe-serve
go build -o "$LOAD" ./cmd/twe-load
go build -o "$TRACE" ./cmd/twe-trace

# start_server <logname> <serve flags...>: launches a daemon on an
# ephemeral port and waits for the address files.
start_server() {
	log="$TMP/$1.log"; shift
	rm -f "$TMP/addr" "$TMP/maddr"
	"$SERVE" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
		-metrics-addr 127.0.0.1:0 -metrics-addr-file "$TMP/maddr" \
		-drain-timeout 30s "$@" >"$log" 2>&1 &
	SRV_PID=$!
	i=0
	while [ ! -s "$TMP/addr" ] || [ ! -s "$TMP/maddr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "serve-smoke: server did not bind"; cat "$log"; exit 1; }
		sleep 0.1
	done
}

# stop_server <logname>: SIGTERM, then assert the drain audit passed.
stop_server() {
	kill -TERM "$SRV_PID"
	if ! wait "$SRV_PID"; then
		echo "serve-smoke: $1: dirty drain"
		cat "$TMP/$1.log"
		exit 1
	fi
	SRV_PID=""
	cat "$TMP/$1.log"
}

echo '== serve-smoke 1/6: correctness (tree + isolcheck, 32 conns) =='
start_server correctness -sched tree -par 4 -isolcheck
"$LOAD" -addr-file "$TMP/addr" -conns 32 -requests 40 -pipeline 4 \
	-conflict 0.25 -scan-every 20 -seed 7 \
	-json "$BENCH_OUT" -scrape "http://$(cat "$TMP/maddr")/metrics"
stop_server correctness
[ -s "$BENCH_OUT" ] || { echo "serve-smoke: $BENCH_OUT missing"; exit 1; }
echo "serve-smoke: wrote $BENCH_OUT"

echo '== serve-smoke 2/6: forced overload (-max-inflight 2, 300us deadline) =='
start_server overload -sched tree -par 2 -max-inflight 2 -deadline 300us
"$LOAD" -addr-file "$TMP/addr" -conns 32 -requests 40 -pipeline 8 \
	-conflict 0.25 -seed 9 -expect-shed
stop_server overload

echo '== serve-smoke 3/6: faults (disconnects + cancels release effects) =='
start_server faults -sched tree -par 4 -isolcheck
"$LOAD" -addr-file "$TMP/addr" -conns 16 -requests 40 -pipeline 4 \
	-conflict 0.25 -seed 11 -faults
stop_server faults

echo '== serve-smoke 4/6: protocol v2 (phase-1 workload over the binary codec) =='
start_server proto-v2 -sched tree -par 4 -isolcheck
"$LOAD" -addr-file "$TMP/addr" -conns 32 -requests 40 -pipeline 4 \
	-conflict 0.25 -scan-every 20 -seed 7 -proto v2
stop_server proto-v2
if ! grep -Eq 'drained: conns=[0-9]+ \(v1=0 v2=[1-9][0-9]*\)' "$TMP/proto-v2.log"; then
	echo "serve-smoke: v2 phase did not negotiate v2:"
	grep drained "$TMP/proto-v2.log" || true
	exit 1
fi

echo '== serve-smoke 5/6: -trace alone still records (Chrome trace, twe-trace -check) =='
start_server trace-only -sched tree -par 4 -trace "$TMP/trace-only.json"
"$LOAD" -addr-file "$TMP/addr" -conns 8 -requests 40 -pipeline 4 \
	-conflict 0.25 -seed 13 -proto v2
stop_server trace-only
CHECK="$("$TRACE" -check "$TMP/trace-only.json")"
echo "$CHECK"
case "$CHECK" in
*' 0 spans'*) echo "serve-smoke: -trace run recorded no spans"; exit 1 ;;
esac

echo '== serve-smoke 6/6: pipelined oracle (4 v2 conns, pipeline 16) =='
start_server pipelined -sched tree -par 4
"$LOAD" -addr-file "$TMP/addr" -conns 4 -pipeline 16 -proto v2 \
	-requests 5000 -scan-every 32
stop_server pipelined

echo 'serve-smoke: OK'
