// Package core implements the tasks-with-effects runtime model of Heumann &
// Adve (PPoPP 2013): dynamically created tasks carrying declared effect
// summaries, scheduled by a pluggable effect-aware scheduler that enforces
// task isolation — no two tasks with interfering effects run concurrently.
//
// The package provides the TWEJava task operations of Fig. 3.1:
//
//	Task.ExecuteLater  →  Runtime.ExecuteLater / Ctx.ExecuteLater
//	TaskFuture.getValue → Runtime.GetValue / Ctx.GetValue
//	TaskFuture.isDone   → Future.IsDone
//	Task.spawn          → Ctx.Spawn
//	SpawnedTaskFuture.join → Ctx.Join
//	execute (§5.5.1)    → Runtime.Execute / Ctx.Execute
//
// Effect transfer when blocked (§3.1.4) is implemented through the blocker
// chain: a task that performs GetValue records the target as its blocker,
// and schedulers ignore effect conflicts between a task and the tasks
// (transitively) blocked on it. Effect transfer for nested parallelism
// (§3.1.5) is implemented by Spawn/Join, which move effects between the
// parent's and child's run-time covering effects; the runtime performs the
// paper's "limited dynamic checking" that a spawned child's effects are
// covered by the parent's current covering effect.
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"twe/internal/compound"
	"twe/internal/effect"
	"twe/internal/obs"
	"twe/internal/pool"
)

// Status is the lifecycle state of a Future, ordered as in the tree
// scheduler's TaskFuture.status (Fig. 5.3): WAITING < PRIORITIZED <
// ENABLED < DONE.
type Status int32

const (
	// Waiting: submitted, not yet permitted to run by the scheduler.
	Waiting Status = iota
	// Prioritized: still waiting, but some running task blocks on it, so
	// schedulers favour it (and may disable other tasks' effects for it).
	Prioritized
	// Enabled: handed to the execution pool; will run or is running.
	Enabled
	// Done: finished; result and error are final.
	Done
)

func (s Status) String() string {
	switch s {
	case Waiting:
		return "WAITING"
	case Prioritized:
		return "PRIORITIZED"
	case Enabled:
		return "ENABLED"
	case Done:
		return "DONE"
	}
	return fmt.Sprintf("Status(%d)", int32(s))
}

// Body is a task body. It runs with a Ctx through which it can create and
// wait for other tasks. A panic in a body is converted to an error on its
// future.
type Body func(ctx *Ctx, arg any) (any, error)

// Task is a reusable task definition: a name, a declared effect summary,
// and a body. The effect summary must cover every memory access the body
// performs (in TWEJava the compiler proves this; here it is the API
// contract, checked statically for TWEL programs and dynamically by the
// isolation monitor in tests).
type Task struct {
	Name string
	Eff  effect.Set
	Body Body
	// Deterministic marks the task as declared @Deterministic (§3.3.5):
	// its body (and everything it invokes) may only use Spawn/Join, never
	// ExecuteLater/GetValue/Execute. The runtime enforces the restriction
	// dynamically; the TWEL checker enforces it statically.
	Deterministic bool
}

// NewTask is a convenience constructor.
func NewTask(name string, eff effect.Set, body Body) *Task {
	return &Task{Name: name, Eff: eff, Body: body}
}

// Future represents one execution of a task (the paper's TaskFuture / TF
// tuple). Futures are created by ExecuteLater, Execute, or Spawn.
type Future struct {
	task *Task
	rt   *Runtime
	arg  any
	eff  effect.Set // effect summary of this execution
	seq  uint64     // creation order, for deterministic tie-breaking

	status  atomic.Int32
	started atomic.Bool
	blocker atomic.Pointer[Future]

	// Tracing bookkeeping, used only when the runtime has a tracer:
	// worker is the pool worker currently running the body (0 = external
	// or inline), submitNS the tracer-clock submission time for the
	// admission-latency histogram; enableNS/startNS/finishNS complete the
	// per-phase stamps consumed by request tracing (DESIGN.md §14).
	worker   atomic.Int32
	submitNS atomic.Int64
	enableNS atomic.Int64
	startNS  atomic.Int64
	finishNS atomic.Int64

	// Wait-for attribution, recorded by the schedulers' conflict checks
	// (tracing slow path only): the last task this future was observed
	// stalled behind, the conflicting effect's RPL path, and a
	// preformatted human-readable description.
	waitSeq  atomic.Uint64
	waitPath atomic.Pointer[string]
	waitDesc atomic.Pointer[string]

	// Spawn bookkeeping.
	spawnParent *Future
	joined      atomic.Bool
	spawnMu     sync.Mutex
	spawned     map[*Future]struct{} // spawned, not-yet-joined children

	// Run-time covering effect (declared − spawned + joined), §3.1.5.
	// Built from eff on first use (coveringLocked), so only a body that
	// spawns, joins or asks CoveringContains pays for it; eff is set once
	// at creation, so the lazily built base is the one an eager build at
	// body start would have made.
	coverMu  sync.Mutex
	covering *compound.Compound

	// deterministic is true if this future or any spawn ancestor is
	// deterministic; restricts the task operations available to the body.
	deterministic bool

	// Fault tolerance (fault.go): cancellation cause, deadline timer,
	// submitted flag.
	cancelState

	// onDone, when non-nil, runs exactly once after the future completes
	// (Submission.OnDone, submit.go). Set before submission on the
	// submitting goroutine, never mutated afterwards.
	onDone func(*Future)

	result any
	err    error
	// done holds the chan struct{} that is closed when the future
	// finishes. It is created lazily: only a GetValue that really blocks
	// installs one (doneChan), and a finish with no waiter installs the
	// shared closedDone sentinel instead (signalDone). Both sides settle
	// the race with one compare-and-swap from empty, so the channel is
	// closed exactly once, by the finisher.
	done atomic.Value

	// ctx is the body's task-operation handle, kept inside the future so
	// a run allocates no separate Ctx.
	ctx Ctx

	// SchedState is private storage for the active scheduler, set during
	// Scheduler.Submit before the future is visible to other goroutines.
	SchedState any
}

// Task returns the task definition this future executes.
func (f *Future) Task() *Task { return f.task }

// Effects returns the effect summary of this execution.
func (f *Future) Effects() effect.Set { return f.eff }

// Seq returns the creation sequence number (older tasks have smaller Seq).
func (f *Future) Seq() uint64 { return f.seq }

// SetWaitFor records that this future is stalled behind other's
// conflicting effect: path is the effect's RPL string (the contention
// profiler aggregates by its prefixes), desc a preformatted description
// ("T7(put) writes Root:Shard:[3]"). Called by effect-aware schedulers on
// the conflict slow path, only when tracing; last call before admission
// wins, matching the blocker the task actually waited out.
func (f *Future) SetWaitFor(other uint64, path, desc string) {
	f.waitSeq.Store(other)
	f.waitPath.Store(&path)
	f.waitDesc.Store(&desc)
}

// WaitFor returns the last recorded wait-for attribution; ok is false if
// the future was never observed stalled behind another task.
func (f *Future) WaitFor() (other uint64, path, desc string, ok bool) {
	p := f.waitPath.Load()
	if p == nil {
		return 0, "", "", false
	}
	if d := f.waitDesc.Load(); d != nil {
		desc = *d
	}
	return f.waitSeq.Load(), *p, desc, true
}

// TraceStamps returns the tracer-clock phase timestamps of this future:
// submission, scheduler admission, body start, and body finish. A stamp
// is zero if its phase has not happened (or the runtime is untraced).
func (f *Future) TraceStamps() (submit, enable, start, finish int64) {
	return f.submitNS.Load(), f.enableNS.Load(), f.startNS.Load(), f.finishNS.Load()
}

// Status returns the current lifecycle state.
func (f *Future) Status() Status { return Status(f.status.Load()) }

// CompareAndSwapStatus atomically transitions the status; schedulers use it
// for WAITING→PRIORITIZED and similar transitions.
func (f *Future) CompareAndSwapStatus(from, to Status) bool {
	if !f.status.CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	if tr := f.rt.tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindStatus, Task: f.seq, Name: f.task.Name, Detail: to.String()})
	}
	return true
}

// IsDone reports whether the task has finished (the isDone operation).
func (f *Future) IsDone() bool { return f.Status() == Done }

// Blocker returns the future this task is currently blocked on, or nil.
func (f *Future) Blocker() *Future { return f.blocker.Load() }

// BlockedOn walks the blocker chain of f and reports whether it reaches
// target (Fig. 5.9), i.e. f is directly or transitively blocked on target.
func (f *Future) BlockedOn(target *Future) bool {
	b := f.Blocker()
	for b != nil {
		if b == target {
			return true
		}
		b = b.Blocker()
	}
	return false
}

// SpawnParent returns the task that spawned this future, or nil if it was
// created by ExecuteLater/Execute.
func (f *Future) SpawnParent() *Future { return f.spawnParent }

// SpawnAncestorOf reports whether f is a spawn-ancestor of g.
func (f *Future) SpawnAncestorOf(g *Future) bool {
	for p := g.spawnParent; p != nil; p = p.spawnParent {
		if p == f {
			return true
		}
	}
	return false
}

// SpawnedChildren returns a snapshot of the spawned, not-yet-joined
// children; schedulers consult it when applying effect transfer to a
// blocked task (Fig. 5.8, lines 6–11).
func (f *Future) SpawnedChildren() []*Future {
	f.spawnMu.Lock()
	defer f.spawnMu.Unlock()
	out := make([]*Future, 0, len(f.spawned))
	for c := range f.spawned {
		out = append(out, c)
	}
	return out
}

func (f *Future) addSpawned(c *Future) {
	f.spawnMu.Lock()
	if f.spawned == nil {
		f.spawned = make(map[*Future]struct{})
	}
	f.spawned[c] = struct{}{}
	f.spawnMu.Unlock()
}

func (f *Future) removeSpawned(c *Future) {
	f.spawnMu.Lock()
	delete(f.spawned, c)
	f.spawnMu.Unlock()
}

// ConflictsIgnoringTransfer implements the conflicts() predicate of
// Fig. 5.8 between the effect summaries of two futures, including the
// effect-transfer exception: conflicts between a task and a task blocked on
// it are ignored, unless a spawned child of the blocked task still holds a
// conflicting effect. Schedulers use the per-effect variant; this
// whole-summary form is shared by the naive scheduler and the isolation
// monitor.
func ConflictsIgnoringTransfer(a, b *Future) bool {
	if a == b {
		return false
	}
	if a.eff.NonInterfering(b.eff) {
		return false
	}
	if a.BlockedOn(b) {
		return spawnedConflict(a, b.eff)
	}
	if b.BlockedOn(a) {
		return spawnedConflict(b, a.eff)
	}
	return true
}

// spawnedConflict reports whether any spawned (unjoined) descendant of
// blocked still holds effects conflicting with eff.
func spawnedConflict(blocked *Future, eff effect.Set) bool {
	for _, c := range blocked.SpawnedChildren() {
		if !c.eff.NonInterfering(eff) {
			return true
		}
		if spawnedConflict(c, eff) {
			return true
		}
	}
	return false
}

// Scheduler is the effect-aware scheduling policy. Implementations must
// guarantee task isolation: Ready may be called on a future only when its
// effects do not interfere with those of any other future that is Ready
// and not Done, modulo the blocked-on and spawn transfers above.
//
// # Scheduler contract
//
// The three methods below are the required surface; everything else a
// scheduler offers is an optional interface the runtime (and tools)
// discover by type assertion. This is the single place the contract is
// documented; internal/core/conformance_test.go asserts at compile time
// which optional interfaces each shipped scheduler implements.
//
// Construction and binding. A scheduler is built by its own package's
// constructor — tree.New() or tree.NewWithOptions(Options{...}) for the
// scalable tree scheduler, naive.New() for the baseline — and handed to
// NewRuntime, which completes the pairing through the optional
//
//	Bind(*Runtime)
//
// interface: a scheduler needing the runtime (for Ready bursts, the
// tracer, pool access) captures it there. A scheduler instance must be
// bound to at most one runtime.
//
// Optional capability interfaces, all discovered via type assertion:
//
//	Descheduler    — Deschedule(f): remove a cancelled, possibly
//	                 never-enabled future (fault.go). Without it,
//	                 cancellation of waiting tasks falls back to Done.
//	Quiescer       — Quiesced() bool: report whether all task/effect
//	                 bookkeeping has drained; the fault suite audits it.
//	BatchScheduler — SubmitBatch(fs): admit a group of futures in one
//	                 call, amortizing the admission hot path (submit.go).
//	                 Without it, Runtime.SubmitBatch degrades to per-task
//	                 Submit with identical semantics.
//
// Introspection follows the same pattern: Pending() int (queue depth,
// used by Runtime.Pending and deadlock diagnostics) and per-scheduler
// Stats() structs (tree.Stats, naive has none) are read through type
// assertions by tools, never by the runtime's hot path.
type Scheduler interface {
	// Submit introduces a future in Waiting (or Prioritized, for Execute)
	// state. The scheduler enables it — immediately or later — by calling
	// f.Ready().
	//
	// Order contract: conflicting tasks that are not prioritized are
	// admitted in Seq order. A task whose Submit starts after a conflicting
	// task's Submit returned does not start before that task; nor does a
	// later member of a SubmitBatch group before an earlier one it
	// conflicts with. Prioritized tasks (Execute, a task some waiter blocks
	// on, the tree's liveness net) may overtake, and so may a task whose
	// submission overlaps an older one's. The naive scheduler keeps the
	// contract with its FIFO queue and the tree scheduler with its elder
	// rule; tree-lockfree's zero-lock fast path is excepted.
	Submit(f *Future)
	// NotifyBlocked is called after caller (possibly nil for an external
	// waiter) has recorded target as its blocker. The scheduler prioritizes
	// target and re-checks the blocker chain so effect transfer can enable
	// it (Fig. 5.11).
	NotifyBlocked(caller, target *Future)
	// Done is called after f's status became Done; the scheduler releases
	// f's effects and re-checks conflicting waiters (Fig. 5.14). It is not
	// called for spawned futures, whose effects the scheduler never held.
	Done(f *Future)
}

// Monitor observes task lifecycle transitions. The isolation checker in
// package isolcheck implements it; production runtimes use the no-op
// monitor.
type Monitor interface {
	// OnRun fires when a future starts executing user code.
	OnRun(f *Future)
	// OnBlock/OnUnblock bracket a blocking GetValue/Join.
	OnBlock(f *Future)
	OnUnblock(f *Future)
	// OnFinish fires after the body (and implicit joins) completed.
	OnFinish(f *Future)
}

type nopMonitor struct{}

func (nopMonitor) OnRun(*Future)     {}
func (nopMonitor) OnBlock(*Future)   {}
func (nopMonitor) OnUnblock(*Future) {}
func (nopMonitor) OnFinish(*Future)  {}

// YieldPoint identifies a controlled-preemption point in the runtime: the
// instants at which a schedule-fuzzing harness may perturb the interleaving
// without changing what the runtime is allowed to do. The points bracket the
// transitions a Monitor observes, plus task submission.
type YieldPoint uint8

const (
	// PointSubmit: a future is about to be handed to the scheduler.
	PointSubmit YieldPoint = iota
	// PointStart: a future's body is about to start executing.
	PointStart
	// PointBlock: a task is about to block in getValue/join.
	PointBlock
	// PointUnblock: a blocked task is about to resume.
	PointUnblock
	// PointFinish: a body returned; its effects are about to be released.
	PointFinish
	// PointCancel: a cancelled future that never ran is about to finish
	// and release its effects.
	PointCancel
)

func (p YieldPoint) String() string {
	switch p {
	case PointSubmit:
		return "submit"
	case PointStart:
		return "start"
	case PointBlock:
		return "block"
	case PointUnblock:
		return "unblock"
	case PointFinish:
		return "finish"
	case PointCancel:
		return "cancel"
	}
	return fmt.Sprintf("YieldPoint(%d)", uint8(p))
}

// Runtime ties a scheduler to an execution pool (§3.4.2).
type Runtime struct {
	pool     *pool.Pool
	sched    Scheduler
	monitor  Monitor
	tracer   *obs.Tracer
	interner *effect.Interner
	yield    func(f *Future, p YieldPoint)
	seq      atomic.Uint64

	// inflight counts submitted futures whose scheduler notification
	// (Done or Deschedule) has not yet completed. Cancellation finishes
	// on the goroutine that wins the started claim — often a deadline
	// timer goroutine the pool never joins — and a future becomes
	// observably done (status store, done channel) before that
	// notification by contract, so Shutdown must wait on this count or a
	// quiescence audit can race a still-in-flight Deschedule.
	inflight sync.WaitGroup
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithMonitor installs a lifecycle monitor. Multiple WithMonitor options
// stack: every installed monitor observes every transition, in
// installation order (a harness that wires its own oracle can therefore
// forward caller-supplied options without silencing either side).
func WithMonitor(m Monitor) Option {
	return func(rt *Runtime) {
		if _, nop := rt.monitor.(nopMonitor); nop || rt.monitor == nil {
			rt.monitor = m
			return
		}
		rt.monitor = monitorPair{rt.monitor, m}
	}
}

// monitorPair fans every Monitor callback out to two monitors; stacked
// WithMonitor options nest pairs.
type monitorPair struct{ a, b Monitor }

func (p monitorPair) OnRun(f *Future)     { p.a.OnRun(f); p.b.OnRun(f) }
func (p monitorPair) OnBlock(f *Future)   { p.a.OnBlock(f); p.b.OnBlock(f) }
func (p monitorPair) OnUnblock(f *Future) { p.a.OnUnblock(f); p.b.OnUnblock(f) }
func (p monitorPair) OnFinish(f *Future)  { p.a.OnFinish(f); p.b.OnFinish(f) }

// WithTracer installs an observability tracer (internal/obs): the runtime
// emits lifecycle, block/transfer and admission events into it, and the
// pool and scheduler update its metrics. A nil tracer (the default) costs
// one pointer comparison per hook point and performs no allocation — see
// the nil-tracer AllocsPerRun test in internal/obs.
func WithTracer(t *obs.Tracer) Option { return func(rt *Runtime) { rt.tracer = t } }

// WithYield installs a controlled-preemption hook, called at each
// YieldPoint with the future making the transition. The hook may delay the
// calling goroutine (runtime.Gosched, short sleeps) to steer the runtime
// through different interleavings, but must not call back into the runtime.
// Schedule fuzzing (internal/schedfuzz) uses it; production runtimes leave
// it unset, which costs a single nil check per transition.
func WithYield(fn func(f *Future, p YieldPoint)) Option {
	return func(rt *Runtime) { rt.yield = fn }
}

// yieldAt invokes the controlled-preemption hook, if any.
func (rt *Runtime) yieldAt(f *Future, p YieldPoint) {
	if rt.yield != nil {
		rt.yield(f, p)
	}
}

// NewRuntime builds a runtime around the given scheduler with the given
// parallelism (0 = GOMAXPROCS). The scheduler must have been constructed
// for this runtime via its package's New function.
func NewRuntime(sched Scheduler, parallelism int, opts ...Option) *Runtime {
	rt := &Runtime{
		pool:     pool.New(parallelism),
		sched:    sched,
		monitor:  nopMonitor{},
		interner: effect.NewInterner(0),
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.tracer != nil {
		rt.pool.SetTracer(rt.tracer)
	}
	if b, ok := sched.(interface{ Bind(*Runtime) }); ok {
		b.Bind(rt)
	}
	return rt
}

// Pool exposes the execution pool (schedulers and tests use it).
func (rt *Runtime) Pool() *pool.Pool { return rt.pool }

// Scheduler returns the active scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.sched }

// Tracer returns the installed observability tracer, or nil. Schedulers
// read it in Bind; a nil result means "do not instrument".
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tracer }

// Interner returns the runtime's effect interner (DESIGN.md §17). Hot
// submission paths — the svc EffectTable/EffectCache, benchmarks — intern
// their effect sets through it so steady-state Covers/Disjoint checks on
// admission are integer compares. Interning is optional and always sound
// to skip.
func (rt *Runtime) Interner() *effect.Interner { return rt.interner }

// Pending returns the number of submitted tasks the scheduler has not yet
// enabled, or -1 if the scheduler does not expose it. Both bundled
// schedulers do, behind their own locks, so diagnostics (deadlock
// reports, the obs CLI) can poll it concurrently with scheduling.
func (rt *Runtime) Pending() int {
	if pc, ok := rt.sched.(interface{ Pending() int }); ok {
		return pc.Pending()
	}
	return -1
}

// Shutdown waits for all submitted tasks and closes the pool. It also
// waits for in-flight scheduler notifications: a deadline-cancelled
// future resolves on its timer goroutine, which the pool drain does not
// join, so without this wait a caller could observe every future done
// while Done/Deschedule calls are still pending — and a post-Shutdown
// Quiesced audit would report phantom leaks.
func (rt *Runtime) Shutdown() {
	rt.pool.Shutdown()
	rt.inflight.Wait()
}

func (rt *Runtime) newFuture(t *Task, arg any) *Future {
	f := new(Future)
	rt.initFuture(f, t, arg)
	return f
}

// initFuture populates a zero Future in place; SubmitBatch carves its
// group's futures out of one slab and initializes them here.
func (rt *Runtime) initFuture(f *Future, t *Task, arg any) {
	f.task = t
	f.rt = rt
	f.arg = arg
	f.eff = t.Eff
	f.seq = rt.seq.Add(1)
	f.deterministic = t.Deterministic
	if rt.tracer != nil {
		f.submitNS.Store(rt.tracer.Clock())
		if rt.tracer.TaskLogEnabled() {
			// The declared-effect string costs a formatting allocation, so
			// it sits behind the predicate: event-log export (obs.WithTaskLog)
			// pays it, every other traced run does not.
			rt.tracer.RecordTask(f.seq, t.Name, f.eff.String())
		}
	}
}

// traceSubmit records a submission event and counter; the single nil
// check is the entire cost when tracing is off.
func (rt *Runtime) traceSubmit(f *Future) { rt.traceSubmitGroup(f, 0) }

// traceSubmitGroup is traceSubmit for a SubmitBatch member: group is the
// batch's group id (the first-created member's seq), carried in Other so
// log consumers can reassemble admission groups — member seqs are not
// contiguous under concurrent submitters.
func (rt *Runtime) traceSubmitGroup(f *Future, group uint64) {
	if rt.tracer == nil {
		return
	}
	rt.tracer.Metrics().TasksSubmitted.Add(1)
	rt.tracer.Emit(obs.Event{Kind: obs.KindSubmit, Task: f.seq, Other: group, Name: f.task.Name, Detail: f.Status().String()})
}

// ExecuteLater queues an asynchronous execution of t (the executeLater
// operation) and returns its future. It is Submit(t, WithArg(arg)) — a
// thin wrapper over the one internal submit path (submit.go).
func (rt *Runtime) ExecuteLater(t *Task, arg any) *Future {
	return rt.submit(Submission{Task: t, Arg: arg}, false)
}

// GetValue blocks until f completes and returns its result (the getValue
// operation performed from outside any task, e.g. from main).
func (rt *Runtime) GetValue(f *Future) (any, error) {
	return rt.getValue(nil, f)
}

// Execute runs t and waits for it, prioritizing it from the start
// (§5.5.1); from outside any task.
func (rt *Runtime) Execute(t *Task, arg any) (any, error) {
	f := rt.submit(Submission{Task: t, Arg: arg}, true)
	return rt.getValue(nil, f)
}

// Run is a convenience for programs: ExecuteLater + GetValue of a root
// task.
func (rt *Runtime) Run(t *Task, arg any) (any, error) {
	return rt.GetValue(rt.ExecuteLater(t, arg))
}

// WaitAll waits for every future and returns the first error encountered
// (still draining the rest, so the runtime quiesces deterministically).
func (rt *Runtime) WaitAll(futs []*Future) error {
	var first error
	for _, f := range futs {
		if _, err := rt.GetValue(f); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitAll is the in-task variant of Runtime.WaitAll, waiting with effect
// transfer from the calling task.
func (c *Ctx) WaitAll(futs []*Future) error {
	var first error
	for _, f := range futs {
		if _, err := c.GetValue(f); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ready is called by the scheduler when all of f's effects are enabled: it
// submits the future to the execution pool. It is idempotent in effect
// because the body-run claims f.started. Batch-aware schedulers enable a
// whole group at once through ReadyBatch (submit.go) instead.
func (f *Future) Ready() {
	if !f.markEnabled() {
		return
	}
	f.rt.pool.SubmitRunner(f)
}

// RunOn is the pool entry point (pool.Runner): an enabled future is queued
// as itself, and the worker that dequeues it runs the body unless an inline
// run (GetValue) or a cancellation claimed it first.
func (f *Future) RunOn(worker int) {
	if f.started.CompareAndSwap(false, true) {
		f.rt.runBody(f, int32(worker))
	}
}

// closedDone is the done-channel sentinel of a future that finished
// before any waiter needed a channel.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// signalDone wakes blocked waiters. The finishing goroutine calls it once,
// after the Done status store: it installs the closed sentinel, or, if a
// waiter installed a channel first, closes that channel.
func (f *Future) signalDone() {
	if !f.done.CompareAndSwap(nil, closedDone) {
		close(f.done.Load().(chan struct{}))
	}
}

// doneChan returns a channel that is closed once f has finished, creating
// it if no waiter or finisher has installed one yet.
func (f *Future) doneChan() chan struct{} {
	if v := f.done.Load(); v != nil {
		return v.(chan struct{})
	}
	ch := make(chan struct{})
	if f.done.CompareAndSwap(nil, ch) {
		return ch
	}
	return f.done.Load().(chan struct{})
}

// markEnabled performs the status transition and admission tracing of
// Ready without the pool handoff; it reports false when the future is
// already Done (a cancelled future must not be resurrected).
func (f *Future) markEnabled() bool {
	// CAS loop so a concurrent cancellation's Done store can never be
	// overwritten: a scheduler recheck that was already enabling this
	// future when it was cancelled must not resurrect it (fault.go).
	for {
		cur := f.status.Load()
		if Status(cur) == Done {
			return false
		}
		if f.status.CompareAndSwap(cur, int32(Enabled)) {
			break
		}
	}
	if tr := f.rt.tracer; tr != nil {
		now := tr.Clock()
		lat := now - f.submitNS.Load()
		f.enableNS.Store(now)
		tr.Metrics().ObserveAdmission(lat)
		if p := f.waitPath.Load(); p != nil {
			// The scheduler noted a conflicting effect while this future
			// waited: charge the full admission wait to that RPL path.
			tr.Contention().Observe(*p, lat)
		}
		if tr.Recording() {
			tr.Emit(obs.Event{Kind: obs.KindEnable, Task: f.seq, Name: f.task.Name,
				Detail: fmt.Sprintf("%dµs", lat/1e3)})
		}
	}
	return true
}

// runBody executes the task body on the calling goroutine, performs the
// implicit join of unjoined spawned children (§3.1.5), publishes the
// result, and notifies the scheduler. worker is the pool worker id for
// trace attribution (0 = external goroutine or inline run).
func (rt *Runtime) runBody(f *Future, worker int32) {
	rt.yieldAt(f, PointStart)
	f.worker.Store(worker)
	// No cancellation check here: a Cancel that lost the started claim
	// has returned false, so the body runs and sees the cause through
	// Ctx.Err (fault.go).
	if rt.tracer != nil {
		f.startNS.Store(rt.tracer.Clock())
		rt.tracer.Emit(obs.Event{Kind: obs.KindStart, Task: f.seq, Name: f.task.Name, Worker: worker})
	}
	rt.monitor.OnRun(f)

	f.ctx = Ctx{rt: rt, fut: f}
	ctx := &f.ctx
	res, err := safeCall(f.task.Body, ctx, f.arg)
	if pe, ok := err.(*PanicError); ok && rt.tracer != nil {
		rt.tracer.Metrics().TaskPanics.Add(1)
		rt.tracer.Emit(obs.Event{Kind: obs.KindPanic, Task: f.seq, Name: f.task.Name,
			Worker: worker, Detail: fmt.Sprint(pe.Value)})
	}

	// Implicit join: a method never "gives up" effects from the
	// perspective of its callers (§3.1.5).
	for {
		children := f.SpawnedChildren()
		if len(children) == 0 {
			break
		}
		for _, c := range children {
			sf := SpawnedFuture{f: c}
			if _, jerr := ctx.Join(&sf); jerr != nil && err == nil {
				if !errors.Is(jerr, ErrAlreadyJoined) {
					err = jerr
				}
			}
		}
	}

	f.result, f.err = res, err
	rt.yieldAt(f, PointFinish)
	if rt.tracer != nil {
		f.finishNS.Store(rt.tracer.Clock())
		rt.tracer.Metrics().TasksCompleted.Add(1)
		rt.tracer.Emit(obs.Event{Kind: obs.KindFinish, Task: f.seq, Name: f.task.Name, Worker: f.worker.Load()})
	}
	// OnFinish must precede the Done store: schedulers treat a Done status
	// as permission to admit conflicting tasks (its memory accesses are
	// over), so the monitor has to deregister this task before any such
	// admission can observe Done — otherwise the oracle reports a phantom
	// overlap between a task that already returned and its successor.
	rt.monitor.OnFinish(f)
	f.status.Store(int32(Done))
	f.signalDone()
	f.stopTimer()
	if f.spawnParent == nil {
		rt.sched.Done(f)
	}
	if f.onDone != nil {
		f.onDone(f)
	}
	if f.submitted.Load() {
		rt.inflight.Done()
	}
}

// safeCall contains a panicking body as a *PanicError carrying the panic
// value and the captured stack; the pool worker and the process survive
// (DESIGN.md §10).
func safeCall(b Body, ctx *Ctx, arg any) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return b(ctx, arg)
}

// getValue implements the blocking wait with effect transfer. caller is
// the future of the task performing the wait, or nil for external waiters.
func (rt *Runtime) getValue(caller, f *Future) (any, error) {
	if f.IsDone() {
		return f.result, f.err
	}
	if caller != nil {
		if caller.BlockedOn(caller) || f == caller {
			return nil, ErrSelfWait
		}
		rt.yieldAt(caller, PointBlock)
		// OnBlock must precede the blocker publication: storing the blocker
		// is what licenses schedulers to admit tasks conflicting with the
		// caller (effect transfer, §3.1.4) — and not only via NotifyBlocked
		// below, since a scan triggered by a concurrent Done can observe the
		// chain the instant it is stored. The monitor therefore has to see
		// the caller as blocked first, or the isolation oracle reports a
		// phantom overlap between the caller and the transferred-to task.
		// Symmetrically, on wake the blocker is retracted before OnUnblock
		// re-registers the caller as active.
		rt.monitor.OnBlock(caller)
		if rt.tracer != nil {
			m := rt.tracer.Metrics()
			m.Blocks.Add(1)
			m.Transfers.Add(1)
			rt.tracer.Emit(obs.Event{Kind: obs.KindBlock, Task: caller.seq, Other: f.seq,
				Name: caller.task.Name, Worker: caller.worker.Load()})
		}
		caller.blocker.Store(f)
		defer func() {
			caller.blocker.Store(nil)
			rt.yieldAt(caller, PointUnblock)
			if rt.tracer != nil {
				rt.tracer.Emit(obs.Event{Kind: obs.KindUnblock, Task: caller.seq, Other: f.seq,
					Name: caller.task.Name, Worker: caller.worker.Load()})
			}
			rt.monitor.OnUnblock(caller)
		}()
	}
	rt.sched.NotifyBlocked(caller, f)

	// Inline-run optimization (§5.5): if the target is enabled but not yet
	// started, run it on this goroutine rather than context-switching. The
	// inline task inherits the caller's worker row in the trace.
	if f.Status() >= Enabled && f.started.CompareAndSwap(false, true) {
		var worker int32
		if caller != nil {
			worker = caller.worker.Load()
		}
		rt.runBody(f, worker)
		return f.result, f.err
	}

	ch := f.doneChan()
	wait := func() { <-ch }
	if caller != nil {
		rt.pool.Block(wait)
	} else {
		wait()
	}
	return f.result, f.err
}

// Errors reported by the task operations.
var (
	// ErrSelfWait: a task attempted to wait on itself.
	ErrSelfWait = errors.New("core: task cannot wait on itself")
	// ErrNotSpawner: Join called by a task other than the spawner (§3.1.5
	// "only the parent task that spawns a task may join it").
	ErrNotSpawner = errors.New("core: only the spawning task may join a spawned task")
	// ErrAlreadyJoined: a spawned task may be joined only once.
	ErrAlreadyJoined = errors.New("core: spawned task already joined")
	// ErrDeterminism: a @Deterministic task used a non-deterministic task
	// operation (§3.3.5).
	ErrDeterminism = errors.New("core: deterministic task may only use Spawn/Join")
)

// UncoveredSpawnError reports a spawn whose effects were not covered by the
// parent's run-time covering effect (§3.1.5's dynamic check).
type UncoveredSpawnError struct {
	Parent, Child string
	ChildEff      effect.Set
	Covering      string
}

func (e *UncoveredSpawnError) Error() string {
	return fmt.Sprintf("core: task %q cannot spawn %q: effects [%v] not covered by current covering effect %s",
		e.Parent, e.Child, e.ChildEff, e.Covering)
}

// SpawnedFuture is the handle returned by Spawn; only it supports Join
// (the SpawnedTaskFuture of Fig. 3.1).
type SpawnedFuture struct {
	f *Future
}

// Future returns the underlying future (GetValue/IsDone work on it, but
// without join's effect transfer back to the parent).
func (sf *SpawnedFuture) Future() *Future { return sf.f }

// IsDone reports completion.
func (sf *SpawnedFuture) IsDone() bool { return sf.f.IsDone() }

// Ctx is the in-task handle through which a body performs task operations.
type Ctx struct {
	rt  *Runtime
	fut *Future
}

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Future returns the future of the currently executing task.
func (c *Ctx) Future() *Future { return c.fut }

// ExecuteLater queues an asynchronous task (not permitted inside
// @Deterministic code).
func (c *Ctx) ExecuteLater(t *Task, arg any) (*Future, error) {
	if c.fut.deterministic {
		return nil, ErrDeterminism
	}
	return c.rt.ExecuteLater(t, arg), nil
}

// GetValue waits for f with effect transfer from the calling task.
func (c *Ctx) GetValue(f *Future) (any, error) {
	if c.fut.deterministic {
		return nil, ErrDeterminism
	}
	return c.rt.getValue(c.fut, f)
}

// Execute runs t to completion as a prioritized critical section (§5.5.1),
// e.g. the reduction tasks of KMeans.
func (c *Ctx) Execute(t *Task, arg any) (any, error) {
	if c.fut.deterministic {
		return nil, ErrDeterminism
	}
	f := c.rt.submit(Submission{Task: t, Arg: arg}, true)
	return c.rt.getValue(c.fut, f)
}

// Spawn runs t immediately as a child task, transferring its effects from
// the calling task (§3.1.5). The child's effects must be covered by the
// caller's current covering effect; otherwise an *UncoveredSpawnError is
// returned and nothing is spawned.
func (c *Ctx) Spawn(t *Task, arg any) (*SpawnedFuture, error) {
	parent := c.fut
	parent.coverMu.Lock()
	if cov := parent.coveringLocked(); !cov.CoversSet(t.Eff) {
		err := &UncoveredSpawnError{
			Parent:   parent.task.Name,
			Child:    t.Name,
			ChildEff: t.Eff,
			Covering: cov.String(),
		}
		parent.coverMu.Unlock()
		return nil, err
	}
	parent.covering = parent.covering.Sub(t.Eff)
	parent.coverMu.Unlock()

	child := c.rt.newFuture(t, arg)
	child.spawnParent = parent
	child.deterministic = parent.deterministic || t.Deterministic
	parent.addSpawned(child)
	if tr := c.rt.tracer; tr != nil {
		tr.Metrics().Spawns.Add(1)
		tr.Emit(obs.Event{Kind: obs.KindSpawn, Task: parent.seq, Other: child.seq,
			Name: t.Name, Worker: parent.worker.Load()})
	}
	// Spawned tasks are enabled immediately: their effects were
	// transferred from a running task, so no other running task can
	// conflict (§5.2.1). The scheduler never tracks them.
	child.Ready()
	return &SpawnedFuture{f: child}, nil
}

// Join waits for a spawned child and transfers its effects back to the
// caller (§3.1.5). Only the spawner may join, and only once.
func (c *Ctx) Join(sf *SpawnedFuture) (any, error) {
	child := sf.f
	if child.spawnParent != c.fut {
		return nil, ErrNotSpawner
	}
	if !child.joined.CompareAndSwap(false, true) {
		return nil, ErrAlreadyJoined
	}
	v, err := c.rt.getValue(c.fut, child)
	c.fut.removeSpawned(child)
	c.fut.coverMu.Lock()
	c.fut.covering = c.fut.coveringLocked().Add(child.eff)
	c.fut.coverMu.Unlock()
	if tr := c.rt.tracer; tr != nil {
		tr.Metrics().Joins.Add(1)
		tr.Emit(obs.Event{Kind: obs.KindJoin, Task: c.fut.seq, Other: child.seq,
			Name: c.fut.task.Name, Worker: c.fut.worker.Load()})
	}
	return v, err
}

// CoveringContains reports whether the calling task's current covering
// effect contains the given summary; bodies can use it for assertions and
// the monitor uses it to validate accesses.
func (c *Ctx) CoveringContains(s effect.Set) bool {
	c.fut.coverMu.Lock()
	defer c.fut.coverMu.Unlock()
	return c.fut.coveringLocked().CoversSet(s)
}

// coveringLocked returns the run-time covering effect, building it from
// the declared summary on first use. The caller holds coverMu.
func (f *Future) coveringLocked() *compound.Compound {
	if f.covering == nil {
		f.covering = compound.NewBase(f.eff)
	}
	return f.covering
}
