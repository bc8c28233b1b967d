// Package obs is the observability layer of the TWE runtime: a
// low-overhead, race-safe event tracer plus a set of scheduler metrics.
// It makes the paper's invisible runtime behaviour — task isolation
// stalls, effect transfer when blocked (PPoPP 2013 §3.1.4), tree-scheduler
// traversals (PACT 2015) — observable without changing it:
//
//   - Tracer records the full task lifecycle (submit, status transitions,
//     block/unblock with blocker identity, spawn/join effect transfer,
//     conflict stalls with the interfering effect, scheduler admissions,
//     worker run spans) into a sharded, fixed-capacity, lock-free ring.
//     When the ring wraps, the oldest events are dropped and counted; the
//     tracer never blocks or grows without bound.
//   - Tracer.WriteChromeTrace exports the recorded events as Chrome
//     trace-event JSON, loadable in Perfetto (ui.perfetto.dev), with one
//     row per pool worker so isolation serialization is visible.
//   - Metrics (Tracer.Metrics) are monotonic counters, gauges and an
//     admission-latency histogram with a Prometheus text-format WriteTo
//     and a cheap Snapshot for tests.
//
// A nil *Tracer is valid everywhere and records nothing: every exported
// method nil-checks its receiver, so an untraced runtime pays a single
// pointer comparison per hook and performs no allocation. A tracer built
// WithoutRing keeps its metrics (and the contention profile) but records
// no events: Emit returns at once and Recording reports false, so
// emitters skip their formatting and per-stall attribution too.
//
// The package deliberately depends only on the standard library; core,
// pool and both schedulers import it, never the reverse.
package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Kind enumerates the traced runtime transitions. The taxonomy maps onto
// the paper's concepts (see DESIGN.md §7): KindConflictStall is task
// isolation being enforced, KindBlock is the license for effect transfer
// when blocked, KindSpawn/KindJoin are the §3.1.5 effect movements.
type Kind uint8

const (
	// KindSubmit: a future was handed to the scheduler (executeLater /
	// execute). Detail holds the initial status. For a member of a
	// SubmitBatch group, Other holds the group id (the first-created
	// member's sequence number); 0 for individually submitted tasks.
	KindSubmit Kind = iota
	// KindStatus: a status transition performed via CompareAndSwapStatus
	// (e.g. WAITING→PRIORITIZED by a scheduler). Detail = new status.
	KindStatus
	// KindEnable: the scheduler admitted the task (all effects enabled);
	// Detail holds the admission latency.
	KindEnable
	// KindStart: the task body began executing; Worker identifies the pool
	// worker goroutine (0 = external/inline).
	KindStart
	// KindBlock: Task blocked on Other in getValue/join. Publishing the
	// blocker is what licenses effect transfer (§3.1.4), so every transfer
	// window in a trace opens with one of these.
	KindBlock
	// KindUnblock: Task resumed after Other completed.
	KindUnblock
	// KindSpawn: Task spawned Other, transferring Other's effects out of
	// Task's covering effect (§3.1.5).
	KindSpawn
	// KindJoin: Task joined Other, transferring Other's effects back.
	KindJoin
	// KindFinish: the task body returned; effects are about to be released.
	KindFinish
	// KindConflictStall: the scheduler kept Task waiting because its
	// effects interfere with Other's. Detail names the stalled task's
	// effect summary — this is task isolation, visible.
	KindConflictStall
	// KindScan: one scheduler admission pass (naive queue scan / tree
	// recheck).
	KindScan
	// KindViolation: the isolation oracle (internal/isolcheck) observed
	// two interfering tasks running concurrently. Detail is the report.
	KindViolation
	// KindPeak: the isolation oracle observed a new high-water mark of
	// concurrently running tasks; Other holds the new peak.
	KindPeak
	// KindCancel: the task was cancelled (Future.Cancel). Detail says
	// whether it was descheduled before running or cancelled cooperatively.
	KindCancel
	// KindPanic: a task body panicked and was contained as a task failure
	// (or, with Task==0, a pool worker contained a runtime-layer panic).
	// Detail carries the panic value.
	KindPanic
	// KindDeadline: the task's deadline expired; the cancellation that
	// follows carries ErrDeadlineExceeded as its cause.
	KindDeadline
	// KindRetry: a dynamic-effects atomic section aborted and will retry
	// with backoff. Task holds the section's transaction sequence number;
	// Detail the attempt count.
	KindRetry
	// KindBreaker: the dyneff abort-storm circuit breaker changed state;
	// Detail is "open" or "closed".
	KindBreaker
	// KindBatchSubmit: a group of futures was handed to the scheduler in
	// one SubmitBatch call. Task holds the first future's sequence number,
	// Other the batch size; per-future KindSubmit events still follow.
	KindBatchSubmit
	// KindReqRecv: the service layer finished reading a request frame off
	// a connection. Task holds the task sequence number (0 if the request
	// was refused before submission), Other the client trace/request id,
	// Worker the connection row, Name the wire op, Dur the read time.
	KindReqRecv
	// KindReqDecode: the frame was decoded into a Request (and, for v2,
	// resolved through the connection's effect-intern table).
	KindReqDecode
	// KindReqWait: the admission wait — submit to enable. Detail names the
	// last task this request was observed stalled behind and the
	// conflicting effect (wait-for attribution, DESIGN.md §14); empty when
	// the request was admitted without a recorded conflict.
	KindReqWait
	// KindReqExec: the task body run span, from the request's perspective.
	KindReqExec
	// KindReqRespond: the response was encoded and written back (including
	// any flush).
	KindReqRespond
)

func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindStatus:
		return "status"
	case KindEnable:
		return "enable"
	case KindStart:
		return "start"
	case KindBlock:
		return "block"
	case KindUnblock:
		return "unblock"
	case KindSpawn:
		return "spawn"
	case KindJoin:
		return "join"
	case KindFinish:
		return "finish"
	case KindConflictStall:
		return "conflict-stall"
	case KindScan:
		return "scan"
	case KindViolation:
		return "violation"
	case KindPeak:
		return "peak"
	case KindCancel:
		return "cancel"
	case KindPanic:
		return "panic"
	case KindDeadline:
		return "deadline"
	case KindRetry:
		return "retry"
	case KindBreaker:
		return "breaker"
	case KindBatchSubmit:
		return "batch-submit"
	case KindReqRecv:
		return "req-recv"
	case KindReqDecode:
		return "req-decode"
	case KindReqWait:
		return "req-wait"
	case KindReqExec:
		return "req-exec"
	case KindReqRespond:
		return "req-respond"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded runtime transition. Events are small values; the
// string fields alias static task names or preformatted details, so
// recording one costs a single heap allocation (the ring slot) and no
// formatting unless the emitter chose to format.
type Event struct {
	// TS is nanoseconds since the tracer was created (Tracer.Clock).
	// Emit stamps it if zero.
	TS int64
	// Kind is the transition recorded.
	Kind Kind
	// Task is the future's creation sequence number (core.Future.Seq);
	// 0 when the event is not tied to a task.
	Task uint64
	// Other is the second party: the blocker in KindBlock, the spawned
	// child in KindSpawn/KindJoin, the holder of the interfering effect in
	// KindConflictStall, the new peak in KindPeak.
	Other uint64
	// Worker is the pool worker goroutine id (1-based; 0 = external or
	// unknown). Request-span kinds repurpose it as a per-connection row id
	// (ReqRowBase + session id) so each connection exports as its own
	// Chrome-trace row.
	Worker int32
	// Dur is the span duration in nanoseconds for the request-span kinds
	// (KindReqRecv..KindReqRespond); 0 for instantaneous kinds, whose
	// duration — if any — is reconstructed from paired events at export.
	Dur int64
	// Name is the task name (static string from the Task definition).
	Name string
	// Detail carries kind-specific extra information (status name,
	// interfering effect summary, violation report).
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("%dns %s T%d", e.TS, e.Kind, e.Task)
	if e.Name != "" {
		s += fmt.Sprintf("(%s)", e.Name)
	}
	if e.Other != 0 {
		s += fmt.Sprintf(" other=T%d", e.Other)
	}
	if e.Worker != 0 {
		s += fmt.Sprintf(" w%d", e.Worker)
	}
	if e.Dur != 0 {
		s += fmt.Sprintf(" dur=%dns", e.Dur)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// numShards fixes the shard count. Sharding by task keeps one task's
// events in one ring (preserving its internal order under wraparound) and
// spreads concurrent writers across rings.
const numShards = 8

// shard is one fixed-capacity ring. Writers reserve a slot with a single
// atomic add and publish the event with an atomic pointer store, so
// recording is lock-free and readers (export-time only) never observe a
// torn event.
type shard struct {
	next atomic.Uint64
	buf  []atomic.Pointer[Event]
}

// Tracer records runtime events and owns the metrics. Create with New;
// a nil *Tracer is a valid no-op sink.
type Tracer struct {
	start    time.Time
	shardCap uint64 // 0 when built WithoutRing
	noRing   bool
	shards   [numShards]shard
	metrics  Metrics
	cont     Contention

	// tasks is the opt-in seq→(name, effect) registry behind the event-log
	// export (eventlog.go); nil unless WithTaskLog was given.
	tasks *taskLog
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithCapacity sets the per-shard ring capacity (default 4096 events per
// shard, 8 shards). Older events are dropped — and counted — once a shard
// wraps.
func WithCapacity(perShard int) Option {
	return func(t *Tracer) {
		if perShard > 0 {
			t.shardCap = uint64(perShard)
		}
	}
}

// WithoutRing builds the tracer without its event ring: metrics, the
// contention profile and the task log work as usual, while Emit drops
// every event and Recording reports false. Runtimes whose only consumer
// is a metrics scrape use it to keep event recording, its formatting and
// wait-for attribution off the hot path.
func WithoutRing() Option {
	return func(t *Tracer) { t.noRing = true }
}

// New returns an empty tracer whose clock starts now.
func New(opts ...Option) *Tracer {
	t := &Tracer{start: time.Now(), shardCap: 4096}
	for _, o := range opts {
		o(t)
	}
	if t.noRing {
		t.shardCap = 0
		return t
	}
	for i := range t.shards {
		t.shards[i].buf = make([]atomic.Pointer[Event], t.shardCap)
	}
	return t
}

// Clock returns nanoseconds since the tracer was created; event emitters
// use it to timestamp work (admission latency) consistently with TS.
func (t *Tracer) Clock() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// Recording reports whether Emit keeps events: false for a nil tracer
// and for one built WithoutRing. Emitters check it before formatting an
// event's detail or doing any other work whose only consumer is the ring.
func (t *Tracer) Recording() bool { return t != nil && t.shardCap != 0 }

// Emit records ev, stamping TS if zero. Safe for concurrent use and on a
// nil or ring-less receiver (no-op). Never blocks: a full ring overwrites
// its oldest slot.
func (t *Tracer) Emit(ev Event) {
	if !t.Recording() {
		return
	}
	if ev.TS == 0 {
		ev.TS = int64(time.Since(t.start))
	}
	s := &t.shards[(ev.Task+uint64(ev.Worker))%numShards]
	i := s.next.Add(1) - 1
	e := ev
	s.buf[i%t.shardCap].Store(&e)
}

// Metrics returns the tracer's metric set, or nil for a nil tracer.
// Callers on hot paths must nil-check the tracer first (one comparison)
// and may then use the returned *Metrics freely.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return &t.metrics
}

// Contention returns the tracer's effect-contention profile, or nil for a
// nil tracer. Like Metrics, a nil *Contention is a valid no-op sink.
func (t *Tracer) Contention() *Contention {
	if t == nil {
		return nil
	}
	return &t.cont
}

// Len returns the number of events currently retained across all shards.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		written := t.shards[i].next.Load()
		if written > t.shardCap {
			written = t.shardCap
		}
		n += int(written)
	}
	return n
}

// Dropped returns how many events were lost to ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var d uint64
	for i := range t.shards {
		if written := t.shards[i].next.Load(); written > t.shardCap {
			d += written - t.shardCap
		}
	}
	return d
}

// Events merges the shards and returns the retained events sorted by
// timestamp (ties broken by task then kind, so the order is deterministic
// for equal clocks). Intended for export after the workload quiesced;
// events emitted concurrently with Events may or may not be included.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	for i := range t.shards {
		s := &t.shards[i]
		for j := uint64(0); j < t.shardCap; j++ {
			if p := s.buf[j].Load(); p != nil {
				out = append(out, *p)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].TS != out[b].TS {
			return out[a].TS < out[b].TS
		}
		if out[a].Task != out[b].Task {
			return out[a].Task < out[b].Task
		}
		return out[a].Kind < out[b].Kind
	})
	return out
}
