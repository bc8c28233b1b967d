// Package tree implements the scalable tree-based scheduler for tasks with
// hierarchical effects (dissertation Ch. 5; PACT 2015). The scheduler
// maintains a tree mirroring the RPL tree: one node per wildcard-free RPL
// prefix. Every effect is held at the node of the maximal wildcard-free
// prefix of its RPL (or higher, while waiting), which gives the two
// properties that make the scheduler scale:
//
//  1. An effect can conflict only with effects at the same node, its
//     ancestors, or (for wildcard effects) its descendants — effects in
//     sibling subtrees need never be compared (§5.3).
//  2. Scheduling operations lock individual tree nodes hand-over-hand,
//     strictly top-down, so operations on disjoint subtrees proceed
//     concurrently (§5.3.1).
//
// The implementation follows the paper's pseudocode: insert (Fig. 5.4),
// addEffect/removeEffect (5.5), checkAt (5.6), checkBelow (5.7), conflicts
// (5.8) with blockedOn (5.9) via the core blocker chain, enable/tryDisable
// (5.10) over an atomic disabled-effect counter whose negative^Whigh range
// encodes the rechecking flag, await-driven prioritization (5.11),
// recheckTask/recheckEffect (5.12), lockContainingNode (5.13), and taskDone
// (5.14). It also implements the §5.5.3 optimization of partitioning each
// node's effects into six sets so conflict checks skip sets that provably
// cannot conflict, and the §5.4 liveness safety net that prioritizes an
// arbitrary waiting task if ever no task is enabled.
//
// One rule goes beyond the paper's checkAt: a non-prioritized check first
// parks the new effect behind the youngest conflicting disabled effect of an
// older task at the node (its youngest elder), so conflicting tasks are
// admitted in Seq order and a pipelined session waits as a chain, one
// successor per effect, rather than all on its running op.
package tree

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"twe/internal/core"
	"twe/internal/obs"
	"twe/internal/rpl"
)

// set indices for the six per-node effect sets (§5.5.3).
const (
	setEnabledReadTail = iota
	setEnabledReadNoTail
	setEnabledWriteTail
	setEnabledWriteNoTail
	setDisabledRead
	setDisabledWrite
	numSets
)

// effInst is one effect of one task execution, tracked by the scheduler
// (the Effect record of Fig. 5.3).
type effInst struct {
	write bool
	r     rpl.RPL
	fut   *core.Future

	// node is the tree node currently containing the effect; read lock-free
	// by lockContainingNode, written under the containing node's lock.
	node atomic.Pointer[node]
	// enabled and waiters are guarded by the containing node's lock.
	// waiters are the effects to recheck when this one leaves the tree; an
	// effect may appear more than once, which costs one redundant recheck.
	enabled bool
	waiters []*effInst
	// setIdx is the index of the per-node set holding the effect, and
	// prev/next link it into that set's list; guarded by the containing
	// node's lock.
	setIdx     int
	prev, next *effInst
}

// effList is one of a node's six effect sets: an intrusive doubly-linked
// list through effInst.prev/next, so filing and unfiling an effect
// allocates nothing. The two disabled lists are kept in fut.Seq() order,
// oldest first (see add), which puts an effect's youngest elder right
// behind it.
type effList struct{ head, tail *effInst }

// insertAfter links e after at, or at the head when at is nil.
func (l *effList) insertAfter(at, e *effInst) {
	e.prev = at
	if at == nil {
		e.next = l.head
		l.head = e
	} else {
		e.next = at.next
		at.next = e
	}
	if e.next == nil {
		l.tail = e
	} else {
		e.next.prev = e
	}
}

// unlink removes e from l.
func (l *effList) unlink(e *effInst) {
	if e.prev == nil {
		l.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		l.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// node is a scheduler-tree node (Fig. 5.3). Its lock guards its effect
// sets, its children map, and the enabled/waiters/setIdx fields of effects
// it contains. The root node of an optimized scheduler uses a read-write
// lock (§5.5.2): inserts that merely pass through the root take the read
// lock and look children up in a concurrent map, so concurrent task
// submissions do not serialize on the root.
type node struct {
	mu    sync.Mutex
	rw    *sync.RWMutex // non-nil only at an RW-optimized root
	depth int
	elem  rpl.Elem // edge label from parent; zero at root
	// children is guarded by the node lock; the RW root uses childSync
	// instead so lookups are safe under its read lock.
	children  map[rpl.Elem]*node
	childSync *sync.Map // rpl.Elem → *node; non-nil iff rw != nil
	sets      [numSets]effList
	// enabledTail counts effects in the two enabled-with-tail sets, under
	// the node lock; at the RW root a nonzero value forces writers onto the
	// write-lock path because pass-through effects could conflict with them
	// (§5.5.2). Only the root's count is read, under its read lock.
	enabledTail int32
}

func newNode(depth int, elem rpl.Elem) *node {
	return &node{depth: depth, elem: elem}
}

// lock acquires the node exclusively (write lock at the RW root).
func (n *node) lock() {
	if n.rw != nil {
		n.rw.Lock()
	} else {
		n.mu.Lock()
	}
}

// unlock releases an exclusive hold.
func (n *node) unlock() {
	if n.rw != nil {
		n.rw.Unlock()
	} else {
		n.mu.Unlock()
	}
}

// getOrCreateChild returns the child for elem, creating it if absent. The
// caller must hold the node exclusively — or, at the RW root, at least the
// read lock (childSync is internally synchronized).
func (n *node) getOrCreateChild(elem rpl.Elem) *node {
	if n.childSync != nil {
		if c, ok := n.childSync.Load(elem); ok {
			return c.(*node)
		}
		c, _ := n.childSync.LoadOrStore(elem, newNode(n.depth+1, elem))
		return c.(*node)
	}
	if n.children == nil {
		n.children = make(map[rpl.Elem]*node)
	}
	c, ok := n.children[elem]
	if !ok {
		c = newNode(n.depth+1, elem)
		n.children[elem] = c
	}
	return c
}

// sortedChildren returns the children in a deterministic order so sibling
// locks are always acquired consistently (§5.5.2). Caller holds the node
// (exclusively, or read-locked at the RW root).
func (n *node) sortedChildren() []*node {
	var out []*node
	if n.childSync != nil {
		n.childSync.Range(func(_, v any) bool {
			out = append(out, v.(*node))
			return true
		})
	} else {
		out = make([]*node, 0, len(n.children))
		for _, c := range n.children {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b *node) int { return compareElem(a.elem, b.elem) })
	return out
}

func compareElem(a, b rpl.Elem) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch {
	case a.Name < b.Name:
		return -1
	case a.Name > b.Name:
		return 1
	case a.Index < b.Index:
		return -1
	case a.Index > b.Index:
		return 1
	}
	return 0
}

// placement computes the six-set index for an effect held at node n.
func (n *node) placement(e *effInst) int {
	if !e.enabled {
		if e.write {
			return setDisabledWrite
		}
		return setDisabledRead
	}
	tail := e.r.Len() > n.depth
	switch {
	case e.write && tail:
		return setEnabledWriteTail
	case e.write:
		return setEnabledWriteNoTail
	case tail:
		return setEnabledReadTail
	default:
		return setEnabledReadNoTail
	}
}

// add places e at n (addEffect, Fig. 5.5). Caller holds the node lock. A
// disabled effect is filed in Seq order, searching from the tail: an effect
// submitted in order lands at the tail in O(1), and one that moves down
// from an ancestor, or is hoisted up, steps back past its juniors.
func (n *node) add(e *effInst) {
	idx := n.placement(e)
	l := &n.sets[idx]
	at := l.tail
	if idx == setDisabledRead || idx == setDisabledWrite {
		for seq := e.fut.Seq(); at != nil && at.fut.Seq() > seq; at = at.prev {
		}
	}
	l.insertAfter(at, e)
	e.setIdx = idx
	e.node.Store(n)
	if idx == setEnabledReadTail || idx == setEnabledWriteTail {
		n.enabledTail++
	}
}

// remove deletes e from n (removeEffect, Fig. 5.5). Caller holds the node
// lock.
func (n *node) remove(e *effInst) {
	n.sets[e.setIdx].unlink(e)
	if e.setIdx == setEnabledReadTail || e.setIdx == setEnabledWriteTail {
		n.enabledTail--
	}
}

// replace re-files e after its enabled flag changed. Caller holds n.mu.
func (n *node) replace(e *effInst) {
	n.remove(e)
	n.add(e)
}

// futState is the scheduler's per-future record (the TaskFuture fields of
// Fig. 5.3 that TWEJava keeps on the future object).
type futState struct {
	effs []*effInst
	// disabled counts not-yet-enabled effects. recheckTask adds
	// recheckOffset while rechecking, which blocks tryDisable (the paper's
	// "special range of values" encoding of the rechecking flag).
	disabled atomic.Int64
	// stalledOn deduplicates conflict-stall trace events (one per
	// distinct blocking task, not one per recheck); recording tracers only.
	stalledOn atomic.Uint64
	// effStr caches the formatted effect summary for stall events, so a
	// future that stalls repeatedly formats its effects once. Accessed
	// from whichever goroutine is checking the future, hence atomic.
	effStr atomic.Pointer[string]
}

const recheckOffset = int64(1) << 32

func stateOf(f *core.Future) *futState {
	if f == nil || f.SchedState == nil {
		return nil
	}
	st, _ := f.SchedState.(*futState)
	return st
}

// Scheduler is the tree-based TWE scheduler. Create with New and pass to
// core.NewRuntime.
type Scheduler struct {
	root *node
	// recheckMu is the global recheck lock: only one task's effects are
	// rechecked at a time, preventing interleaved rechecks of conflicting
	// tasks from disabling each other forever (Fig. 5.12).
	recheckMu sync.Mutex

	// Liveness safety net (§5.3.2): if no task is enabled while waiting
	// tasks exist, prioritize and recheck one arbitrary (oldest) waiter.
	// liveMu guards waiting; enabledCount is atomic so pure tasks and
	// Done can settle it without the lock.
	liveMu       sync.Mutex
	waiting      map[*core.Future]struct{}
	enabledCount atomic.Int64

	// Instrumentation (cheap atomics) for the scalability claims of §5.3:
	// how many pairwise effect comparisons the scheduler performed, and how
	// many inserts took the root fast path.
	conflictChecks atomic.Int64
	fastInserts    atomic.Int64
	slowInserts    atomic.Int64

	// tracer is the runtime's observability sink (set in Bind; nil when
	// untraced). The scheduler feeds it conflict-check/hit counters,
	// node-visit counts, queue depth, and conflict-stall events.
	tracer *obs.Tracer

	// unsafeSkipConflictCheck is the Options seeded-mutation switch: every
	// conflict check answers "no conflict" (spec-oracle testing only).
	unsafeSkipConflictCheck bool
}

// Bind is called by core.NewRuntime; the scheduler picks up the
// runtime's tracer (if any).
func (s *Scheduler) Bind(rt *core.Runtime) { s.tracer = rt.Tracer() }

// visitNode counts one tree-node traversal in the metrics.
func (s *Scheduler) visitNode() {
	if s.tracer != nil {
		s.tracer.Metrics().TreeNodeVisits.Add(1)
	}
}

// noteDepthLocked publishes the waiting-task gauge; caller holds liveMu.
func (s *Scheduler) noteDepthLocked() {
	if s.tracer != nil {
		s.tracer.Metrics().SetQueueDepth(int64(len(s.waiting)))
	}
}

// traceStall emits a conflict-stall event for e waiting on ep, once per
// distinct blocking task. Both the event and the wait-for attribution
// feed consumers of the event ring, so a runtime without one (untraced,
// or a metrics-only tracer) returns before formatting anything.
func (s *Scheduler) traceStall(e, ep *effInst) {
	if !s.tracer.Recording() {
		return
	}
	st := stateOf(e.fut)
	if st == nil || st.stalledOn.Swap(ep.fut.Seq()) == ep.fut.Seq() {
		return
	}
	eff := st.effStr.Load()
	if eff == nil {
		str := e.fut.Effects().String()
		eff = &str
		st.effStr.Store(eff)
	}
	// Wait-for attribution (DESIGN.md §14): record the blocking task and
	// its conflicting effect on the stalled future, so request tracing can
	// name the blocker and the contention profiler can charge the
	// admission wait to this RPL subtree.
	rw := "reads"
	if ep.write {
		rw = "writes"
	}
	path := ep.r.String()
	e.fut.SetWaitFor(ep.fut.Seq(), path,
		fmt.Sprintf("T%d(%s) %s %s", ep.fut.Seq(), ep.fut.Task().Name, rw, path))
	s.tracer.Emit(obs.Event{Kind: obs.KindConflictStall, Task: e.fut.Seq(), Other: ep.fut.Seq(),
		Name: e.fut.Task().Name, Detail: *eff})
}

// Stats is a snapshot of scheduler instrumentation counters.
type Stats struct {
	// ConflictChecks counts invocations of the conflicts() predicate —
	// the per-pair effect comparisons the tree structure exists to avoid.
	ConflictChecks int64
	// FastInserts / SlowInserts count Submit calls that took the §5.5.2
	// root read-lock fast path vs the write-lock path.
	FastInserts, SlowInserts int64
}

// Stats returns the current instrumentation counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		ConflictChecks: s.conflictChecks.Load(),
		FastInserts:    s.fastInserts.Load(),
		SlowInserts:    s.slowInserts.Load(),
	}
}

// noteAdmit counts k effectful submissions entering the locked descent in
// the obs metric family.
func (s *Scheduler) noteAdmit(k int) {
	if s.tracer != nil {
		s.tracer.Metrics().AdmitSlowpath.Add(uint64(k))
	}
}

// Options configure the scheduler; the zero value enables all paper
// optimizations.
type Options struct {
	// DisableRootRW turns off the §5.5.2 root read-write-lock fast path
	// (used by the ablation benchmarks).
	DisableRootRW bool
	// UnsafeSkipConflictCheck makes admission ignore held conflicting
	// effects — a deliberately broken scheduler that enables every waiting
	// task unconditionally. It exists solely as the seeded mutation for
	// the admission-spec oracles (internal/spec): both the model checker
	// and the trace-refinement check must catch it. Never use it to run
	// real work.
	UnsafeSkipConflictCheck bool
}

// New returns an empty tree scheduler with all optimizations enabled.
func New() *Scheduler { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty tree scheduler with explicit options.
func NewWithOptions(opts Options) *Scheduler {
	root := newNode(0, rpl.Elem{})
	if !opts.DisableRootRW {
		root.rw = new(sync.RWMutex)
		root.childSync = new(sync.Map)
	}
	return &Scheduler{
		root:                    root,
		waiting:                 make(map[*core.Future]struct{}),
		unsafeSkipConflictCheck: opts.UnsafeSkipConflictCheck,
	}
}

var (
	_ core.Scheduler      = (*Scheduler)(nil)
	_ core.BatchScheduler = (*Scheduler)(nil)
	_ core.Descheduler    = (*Scheduler)(nil)
	_ core.Quiescer       = (*Scheduler)(nil)
)

// futState1 and futState2 are the exact-size records of a future with one
// or two effects: the state, its effect instances and the pointer view
// over them in one allocation. Sizing to the effect count matters: a
// fixed two-slot array in every futState would make each one-effect task
// carry a dead effInst. The effs view points into the same object, so
// effInst pointers are as stable as with separate slabs.
type futState1 struct {
	futState
	refs  [1]*effInst
	insts [1]effInst
}

type futState2 struct {
	futState
	refs  [2]*effInst
	insts [2]effInst
}

// newState builds and registers the scheduler's per-future record: one
// allocation for up to two effects, three (state, instances, pointer view)
// above that.
func newState(f *core.Future) *futState {
	eff := f.Effects()
	var st *futState
	var insts []effInst
	switch n := eff.Len(); n {
	case 0:
		st = &futState{}
	case 1:
		x := new(futState1)
		st, insts = &x.futState, x.insts[:]
		st.effs = x.refs[:]
	case 2:
		x := new(futState2)
		st, insts = &x.futState, x.insts[:]
		st.effs = x.refs[:]
	default:
		st = &futState{effs: make([]*effInst, n)}
		insts = make([]effInst, n)
	}
	for j := range insts {
		e := eff.At(j)
		insts[j] = effInst{write: e.Write, r: e.Region, fut: f}
		st.effs[j] = &insts[j]
	}
	st.disabled.Store(int64(len(st.effs)))
	f.SchedState = st
	return st
}

// Submit inserts the future's effects starting at the root (executeLater).
func (s *Scheduler) Submit(f *core.Future) {
	st := newState(f)

	if len(st.effs) == 0 {
		// A pure task conflicts with nothing.
		s.enabledCount.Add(1)
		f.Ready()
		return
	}

	s.liveMu.Lock()
	s.waiting[f] = struct{}{}
	s.noteDepthLocked()
	s.liveMu.Unlock()

	s.noteAdmit(1)
	prio := f.Status() == core.Prioritized // the execute optimization, §5.5.1
	if s.root.rw != nil && s.tryFastInsert(st.effs, prio, nil) {
		s.fastInserts.Add(1)
	} else {
		s.slowInserts.Add(1)
		s.root.lock()
		s.insert(s.root, st.effs, 0, prio, nil)
	}
	s.ensureLiveness()
}

// SubmitBatch admits a group of futures in one pass (core.BatchScheduler;
// DESIGN.md §12). It amortizes the three per-task costs of Submit:
//
//  1. Registration. Every future's effect bookkeeping (futState, waiting
//     set, pure-task enabled slots) is registered before any enable
//     decision, under one liveMu acquisition, so the group's isolation
//     semantics are those of submitting the futures one by one in Seq
//     order — two interfering batch members can never both enable.
//  2. Descent. The combined effect list of the whole group descends the
//     tree together: insert partitions effects per child node and locks
//     each child once (children in sorted-prefix order), so N tasks
//     sharing an RPL prefix pay one hand-over-hand descent instead of N.
//     Effects the descent enables are collected into a ready sink and
//     flushed to the execution pool in one core.ReadyBatch burst rather
//     than one pool wakeup per task.
//  3. Recheck. The liveness safety net runs in its coalesced form, taking
//     the global recheck lock at most once for the whole batch instead of
//     once per submitted task.
func (s *Scheduler) SubmitBatch(fs []*core.Future) {
	if len(fs) == 0 {
		return
	}
	// Phase 1: register everything before enabling anything. The group's
	// scheduler state is carved out of three slab allocations (futStates,
	// effect instances, and the combined pointer slice): at batch sizes
	// the per-task allocator traffic, not the tree locks, dominates
	// admission cost. The slabs live until the whole group retires, which
	// is the natural lifetime of a batch anyway. effInst pointers must
	// stay stable, so insts is sized exactly and only ever indexed.
	total := 0
	for _, f := range fs {
		total += f.Effects().Len()
	}
	states := make([]futState, len(fs))
	insts := make([]effInst, total)
	refs := make([]*effInst, total) // per-future effs subslices + combined view
	var npure int
	work := make([]*core.Future, 0, len(fs))
	ready := make([]*core.Future, 0, len(fs))
	k := 0
	for i, f := range fs {
		st := &states[i]
		eff := f.Effects()
		n := eff.Len()
		for j := 0; j < n; j++ {
			e := eff.At(j)
			insts[k+j] = effInst{write: e.Write, r: e.Region, fut: f}
			refs[k+j] = &insts[k+j]
		}
		st.effs = refs[k : k+n : k+n]
		k += n
		st.disabled.Store(int64(n))
		f.SchedState = st
		if n == 0 {
			npure++
			ready = append(ready, f) // a pure task conflicts with nothing
		} else {
			work = append(work, f)
		}
	}
	all := refs[:k] // combined, in future-Seq order
	s.enabledCount.Add(int64(npure))
	s.liveMu.Lock()
	for _, f := range work {
		s.waiting[f] = struct{}{}
	}
	s.noteDepthLocked()
	s.liveMu.Unlock()

	// Phase 2: one descent for the whole group.
	if len(all) > 0 {
		s.noteAdmit(len(work))
		if s.tracer != nil {
			s.tracer.Metrics().BatchDescents.Add(uint64(prefixGroups(all)))
		}
		if s.root.rw != nil && s.tryFastInsert(all, false, &ready) {
			s.fastInserts.Add(1)
		} else {
			s.slowInserts.Add(1)
			s.root.lock()
			s.insert(s.root, all, 0, false, &ready)
		}
	}
	core.ReadyBatch(ready)
	s.ensureLivenessCoalesced()
}

// prefixGroups counts the distinct first-element prefixes of a batch — the
// number of shared-prefix descents its admission performs (effects landing
// at the root count as one group). Metrics only.
func prefixGroups(effs []*effInst) int {
	groups := make(map[rpl.Elem]struct{})
	rootGroup := false
	for _, e := range effs {
		if e.r.Len() == 0 || e.r.Elem(0).IsWildcard() {
			rootGroup = true
		} else {
			groups[e.r.Elem(0)] = struct{}{}
		}
	}
	n := len(groups)
	if rootGroup {
		n++
	}
	return n
}

// tryFastInsert is the §5.5.2 fast path: when every effect passes through
// the root (its RPL starts with a concrete element) and the root holds no
// enabled effects with tails that a pass-through could conflict with, the
// insert needs only the root's read lock. Child nodes are still locked in
// sorted order, so concurrent fast inserts cannot deadlock. ready is the
// batch enable sink (nil for single-task Submit), threaded to insert.
func (s *Scheduler) tryFastInsert(effs []*effInst, prio bool, ready *[]*core.Future) bool {
	for _, e := range effs {
		if e.r.Len() == 0 || e.r.Elem(0).IsWildcard() {
			return false // lands at the root: write path
		}
	}
	root := s.root
	root.rw.RLock()
	if root.enabledTail != 0 {
		// A wildcard effect sits at the root; pass-through inserts must
		// check against it under the write lock.
		root.rw.RUnlock()
		return false
	}
	routes := make([]routedEff, len(effs))
	for i, e := range effs {
		routes[i] = routedEff{c: root.getOrCreateChild(e.r.Elem(0)), e: e}
	}
	lockRoutes(routes)
	root.rw.RUnlock()
	s.insertRoutes(routes, 1, prio, ready)
	return true
}

// NotifyBlocked implements the await prioritization of Fig. 5.11: the
// blocked-on chain is walked and every not-yet-enabled task on it is
// rechecked, which lets effect transfer enable it.
func (s *Scheduler) NotifyBlocked(caller, target *core.Future) {
	target.CompareAndSwapStatus(core.Waiting, core.Prioritized)
	for tbl := target; tbl != nil; tbl = tbl.Blocker() {
		if tbl.Status() < core.Enabled {
			if st := stateOf(tbl); st != nil {
				tbl.CompareAndSwapStatus(core.Waiting, core.Prioritized)
				s.recheckTask(tbl, st)
			}
		}
	}
}

// Done removes the finished task's effects from the tree and re-checks the
// effects that were waiting on them (taskDone, Fig. 5.14).
func (s *Scheduler) Done(f *core.Future) {
	st := stateOf(f)
	if st == nil {
		return
	}
	for _, e := range st.effs {
		// removeEffect takes the waiters inside the same critical section
		// as the removal: checkAt/checkBelow add waiters only while holding
		// the node's lock and only for effects still present, so no wakeup
		// can be lost. With the elder rule a waiting chain hands over one
		// successor here, not the whole queue.
		s.recheckWaiters(s.removeEffect(e))
	}

	s.enabledCount.Add(-1)
	s.ensureLiveness()
}

// recheckWaiters rechecks the effects that waited on a removed one,
// oldest-first: conflicting waiters are admitted in task age order, the
// fairness §3.1.3 asks of schedulers for interactive programs ("avoid
// delaying the execution of one task excessively while other tasks
// execute ahead of it").
func (s *Scheduler) recheckWaiters(waiters []*effInst) {
	if len(waiters) == 0 {
		return
	}
	slices.SortFunc(waiters, func(a, b *effInst) int {
		return cmp.Compare(a.fut.Seq(), b.fut.Seq())
	})
	for _, w := range waiters {
		nw := s.lockContainingNode(w)
		if !w.enabled && w.fut.Status() < core.Done {
			prio := w.fut.Status() == core.Prioritized
			s.recheckEffect(w, nw, prio)
			if prio && w.fut.Status() == core.Prioritized {
				// Rechecking the single effect did not enable the task;
				// recheck all its effects (some may have been disabled).
				if wst := stateOf(w.fut); wst != nil {
					s.recheckTask(w.fut, wst)
				}
			}
		} else {
			nw.unlock()
		}
	}
}

// Deschedule removes a cancelled future that may never have been enabled
// (core.Descheduler): its effects leave the tree, effects that were
// waiting on them are rechecked, and the liveness bookkeeping is settled
// whether the task was still waiting or had already been enabled.
//
// The core cancel path publishes the future's Done status before calling
// Deschedule. Holding the global recheck lock across the removal then
// gives exclusion against recheckTask in both directions: an in-flight
// recheck of this task finishes before the removal starts (it could
// otherwise move or re-enable an effect that is being removed), and any
// later recheck observes Done under recheckMu and stands down. The
// waiter-recheck path of Done does not take recheckMu, but it re-checks
// the waiter's status under its node lock, so a removed effect is never
// resurrected there either.
func (s *Scheduler) Deschedule(f *core.Future) {
	st := stateOf(f)
	if st == nil {
		return
	}
	var waiters []*effInst
	s.recheckMu.Lock()
	for _, e := range st.effs {
		waiters = append(waiters, s.removeEffect(e)...)
	}
	s.recheckMu.Unlock()

	s.liveMu.Lock()
	if _, ok := s.waiting[f]; ok {
		// Never fully enabled: it held a waiting slot.
		delete(s.waiting, f)
		s.noteDepthLocked()
		s.liveMu.Unlock()
	} else {
		// The task had been enabled (or was pure) before the cancel won
		// the start race; release its enabled slot like Done does.
		s.liveMu.Unlock()
		s.enabledCount.Add(-1)
	}

	// Recheck the effects that were waiting on the removed ones,
	// oldest-first, exactly as Done does.
	s.recheckWaiters(waiters)
	s.ensureLiveness()
}

// Quiesced reports whether the scheduler retains no task or effect
// bookkeeping: no waiting tasks, no live enabled tasks, and an empty
// effect tree. The fault-injection suite asserts it after every scenario
// to prove that every exit path — done, cancelled, panicked — released
// its effects.
func (s *Scheduler) Quiesced() bool {
	s.liveMu.Lock()
	w := len(s.waiting)
	s.liveMu.Unlock()
	return w == 0 && s.enabledCount.Load() == 0 && s.PendingEffects() == 0
}

// --- insertion (Fig. 5.4) ------------------------------------------------

// insert processes effects at node n, which must be locked on entry and is
// unlocked before recursing into children. effs may combine the effects of
// several futures (a SubmitBatch group) in future-Seq order; ready, when
// non-nil, collects futures this insert fully enables instead of handing
// each to the pool individually (the batch flush of core.ReadyBatch).
func (s *Scheduler) insert(n *node, effs []*effInst, depth int, prio bool, ready *[]*core.Future) {
	s.visitNode()
	// routes collects group effects headed into child subtrees; it stays
	// nil for the common leaf-level insert, which then allocates nothing.
	var routes []routedEff
	// pendingBelow tracks group effects already routed to a child subtree
	// but not yet placed there: a later effect living at n cannot see them
	// through checkAt (they are not at n) or checkBelow (not placed yet),
	// so it must check them here or two interfering batch members could
	// both enable.
	var pendingBelow []*effInst
	for _, e := range effs {
		if e.r.Len() == depth || e.r.Elem(depth).IsWildcard() {
			// n is the maximal wildcard-free prefix node: the effect lives
			// here permanently (while this placement holds).
			n.add(e)
			if !s.checkAt(n, e, prio) {
				if !s.waitOnPending(e, pendingBelow) && !s.checkBelow(n, e, n, prio) {
					s.enableInto(e, n, ready)
				}
			}
		} else {
			if s.checkAt(n, e, prio) {
				n.add(e) // wait here; recheck will move it down later
			} else {
				routes = append(routes, routedEff{c: n.getOrCreateChild(e.r.Elem(depth)), e: e})
				pendingBelow = append(pendingBelow, e)
			}
		}
	}
	if len(routes) == 0 {
		n.unlock()
		return
	}
	lockRoutes(routes)
	n.unlock()
	s.insertRoutes(routes, depth+1, prio, ready)
}

// routedEff pairs a group effect with the child subtree it routes into
// during an insert descent.
type routedEff struct {
	c *node
	e *effInst
}

// lockRoutes sorts routes stably by child and locks each distinct child —
// stable so children are locked in compareElem order (the global child
// lock order) while each child's effects keep their Seq order. Call with
// the parent lock held; the caller releases the parent afterwards
// (hand-over-hand).
func lockRoutes(routes []routedEff) {
	slices.SortStableFunc(routes, func(a, b routedEff) int {
		return compareElem(a.c.elem, b.c.elem)
	})
	for i := range routes {
		if i == 0 || routes[i].c != routes[i-1].c {
			routes[i].c.lock()
		}
	}
}

// insertRoutes recurses into each locked child with its run of effects.
// One scratch slice serves every run: insert stores the *effInst values
// into node sets, never the slice itself, so the backing array is free
// for reuse as soon as the recursive call returns.
func (s *Scheduler) insertRoutes(routes []routedEff, depth int, prio bool, ready *[]*core.Future) {
	group := make([]*effInst, 0, len(routes))
	for i := 0; i < len(routes); {
		j := i + 1
		for j < len(routes) && routes[j].c == routes[i].c {
			j++
		}
		group = group[:0]
		for k := i; k < j; k++ {
			group = append(group, routes[k].e)
		}
		s.insert(routes[i].c, group, depth, prio, ready)
		i = j
	}
}

// waitOnPending checks a lives-at-n effect e against the same insert
// group's effects routed below n but not yet placed. On the first
// conflict, e is left disabled waiting on that effect: registering in its
// waiters set is safe while it is unplaced because placement happens later
// on this same goroutine (after n unlocks), so the write is ordered before
// any other goroutine can reach the set through its node lock. This is
// conservative relative to one-by-one submission (which could let e
// overtake a conflicting effect that ends up disabled below), but never
// less available: a recheck of e performs the normal checkBelow against
// the then-placed effect and resolves it the sequential way.
func (s *Scheduler) waitOnPending(e *effInst, pending []*effInst) bool {
	for _, ep := range pending {
		if s.conflicts(ep, e) {
			ep.waiters = append(ep.waiters, e)
			s.traceStall(e, ep)
			return true
		}
	}
	return false
}

// --- conflict checking (Figs. 5.6–5.8) ------------------------------------

// checkAt tests e against the effects at n (Fig. 5.6) and reports whether
// e must wait. A non-prioritized check first applies the elder rule: e
// parks behind its youngest elder at n (see youngestElder), which keeps
// conflicting tasks in Seq order; a newcomer could otherwise overtake a
// waiter in the window between a Done's removal and the waiter's recheck.
// Prioritized checks (the liveness net, NotifyBlocked, Execute) skip the
// rule, so they may still overtake, and since elder waits point only from
// young to old, the net can always resolve a cycle they join. Then e is
// tested against the enabled effects, using only the six-set subsets that
// can possibly conflict (§5.5.3): read effects skip other reads, and an
// effect passing through n on the way to a deeper node can only conflict
// with effects that have a tail beyond n's prefix. Caller holds n.mu and
// the lock of e's containing node (if e is placed).
func (s *Scheduler) checkAt(n *node, e *effInst, prio bool) bool {
	// passing-through: e continues below n with a concrete element.
	passing := e.r.Len() > n.depth && !e.r.Elem(n.depth).IsWildcard()
	if !prio {
		if ep := s.youngestElder(n, e); ep != nil {
			ep.waiters = append(ep.waiters, e)
			s.traceStall(e, ep)
			return true
		}
	}
	var idxs []int
	if e.write {
		if passing {
			idxs = []int{setEnabledReadTail, setEnabledWriteTail}
		} else {
			idxs = []int{setEnabledReadTail, setEnabledReadNoTail, setEnabledWriteTail, setEnabledWriteNoTail}
		}
	} else {
		if passing {
			idxs = []int{setEnabledWriteTail}
		} else {
			idxs = []int{setEnabledWriteTail, setEnabledWriteNoTail}
		}
	}
	for _, idx := range idxs {
		var next *effInst
		for ep := n.sets[idx].head; ep != nil; ep = next {
			next = ep.next // tryDisable refiles ep in a disabled list
			if !ep.enabled || !s.conflicts(ep, e) {
				continue
			}
			if prio && s.tryDisable(ep, n) {
				e.waiters = append(e.waiters, ep)
				continue
			}
			ep.waiters = append(ep.waiters, e)
			s.traceStall(e, ep)
			return true
		}
	}
	return false
}

// youngestElder returns the youngest effect at n that is disabled, belongs
// to an older task than e, and conflicts with e; nil if there is none. A
// write checks both disabled lists, a read only the writes. The lists are
// in Seq order, so each search walks back from e itself when e is filed in
// the list, and otherwise from the tail past e's juniors, and stops at the
// first conflicting elder or at one no younger than an elder already found.
func (s *Scheduler) youngestElder(n *node, e *effInst) *effInst {
	seq := e.fut.Seq()
	var elder *effInst
	for _, idx := range [...]int{setDisabledWrite, setDisabledRead} {
		if idx == setDisabledRead && !e.write {
			break
		}
		ep := n.sets[idx].tail
		if e.setIdx == idx && e.node.Load() == n {
			ep = e.prev
		}
		for ; ep != nil && (elder == nil || ep.fut.Seq() > elder.fut.Seq()); ep = ep.prev {
			if ep.fut.Seq() < seq && s.conflicts(ep, e) {
				elder = ep
				break
			}
		}
	}
	return elder
}

// checkBelow tests e (held at ne) against all effects in the subtrees below
// n (Fig. 5.7). Conflicting disabled effects are hoisted up to ne so that a
// later recheck starting at ne will encounter e, except that a
// non-prioritized e parks behind a conflicting disabled effect of an older
// task, as checkAt's elder rule does. Caller holds n.mu and ne.mu; children
// are locked hand-over-hand.
func (s *Scheduler) checkBelow(n *node, e *effInst, ne *node, prio bool) bool {
	if !e.r.HasWildcard() {
		// A wildcard-free RPL is disjoint from every RPL with a longer
		// wildcard-free prefix.
		return false
	}
	for _, child := range n.sortedChildren() {
		child.lock()
		s.visitNode()
		conflictFound := s.checkChild(child, e, ne, prio)
		if !conflictFound {
			conflictFound = s.checkBelow(child, e, ne, prio)
		}
		child.unlock()
		if conflictFound {
			return true
		}
	}
	return false
}

// checkChild is checkBelow's scan of one locked child's effect sets.
func (s *Scheduler) checkChild(child *node, e *effInst, ne *node, prio bool) bool {
	for idx := range child.sets {
		if !e.write && (idx == setEnabledReadTail || idx == setEnabledReadNoTail || idx == setDisabledRead) {
			continue // read effect cannot conflict with reads
		}
		var next *effInst
		for ep := child.sets[idx].head; ep != nil; ep = next {
			next = ep.next // hoisting unlinks ep
			if !s.conflicts(ep, e) {
				continue
			}
			if !ep.enabled && !prio && ep.fut.Seq() < e.fut.Seq() {
				ep.waiters = append(ep.waiters, e)
				s.traceStall(e, ep)
				return true
			}
			if !ep.enabled || (prio && s.tryDisable(ep, child)) {
				// Move the (now) disabled conflicting effect up to ne and
				// remember it as a waiter of e.
				e.waiters = append(e.waiters, ep)
				child.remove(ep)
				ne.add(ep)
				continue
			}
			ep.waiters = append(ep.waiters, e)
			s.traceStall(e, ep)
			return true
		}
	}
	return false
}

// conflicts implements Fig. 5.8: effects of the same task never conflict;
// otherwise two effects conflict unless both are reads or their RPLs are
// disjoint; and conflicts with a task blocked (directly or transitively) on
// the new effect's task are forgiven — unless a spawned child of the
// blocked task still holds a conflicting effect.
func (s *Scheduler) conflicts(ep, e *effInst) bool {
	if s.unsafeSkipConflictCheck {
		return false
	}
	s.conflictChecks.Add(1)
	c := s.conflictsInner(ep, e)
	if s.tracer != nil {
		m := s.tracer.Metrics()
		m.ConflictChecks.Add(1)
		if c {
			m.ConflictHits.Add(1)
		}
	}
	return c
}

func (s *Scheduler) conflictsInner(ep, e *effInst) bool {
	if ep.fut == e.fut {
		return false
	}
	if (!ep.write && !e.write) || ep.r.Disjoint(e.r) {
		return false
	}
	if ep.fut.BlockedOn(e.fut) {
		return spawnedConflicts(ep.fut, e)
	}
	return true
}

// spawnedConflicts checks the effects of blocked's spawned (unjoined)
// descendants against e (Fig. 5.8 lines 7–10).
func spawnedConflicts(blocked *core.Future, e *effInst) bool {
	for _, child := range blocked.SpawnedChildren() {
		for _, ce := range child.Effects().Effects() {
			if (ce.Write || e.write) && !ce.Region.Disjoint(e.r) {
				return true
			}
		}
		if spawnedConflicts(child, e) {
			return true
		}
	}
	return false
}

// --- enabling and disabling (Fig. 5.10) -----------------------------------

// enable marks e enabled; if it was the task's last disabled effect the
// task is handed to the execution pool. Caller holds n.mu (= e's node).
func (s *Scheduler) enable(e *effInst, n *node) { s.enableInto(e, n, nil) }

// enableInto is enable with a deferred pool handoff: when ready is
// non-nil, a fully enabled future is appended to it for a later
// core.ReadyBatch flush instead of Ready() under the node lock. The
// liveness bookkeeping (waiting set, enabled count) is settled here either
// way, so tryDisable (blocked by disabled==0), ensureLiveness (sees
// enabledCount>0) and Deschedule all remain correct during the deferral
// window.
func (s *Scheduler) enableInto(e *effInst, n *node, ready *[]*core.Future) {
	if e.enabled {
		return
	}
	e.enabled = true
	n.replace(e)
	st := stateOf(e.fut)
	v := st.disabled.Add(-1)
	if v == 0 || v == recheckOffset {
		s.liveMu.Lock()
		delete(s.waiting, e.fut)
		s.enabledCount.Add(1)
		s.noteDepthLocked()
		s.liveMu.Unlock()
		if ready != nil {
			*ready = append(*ready, e.fut)
		} else {
			e.fut.Ready()
		}
	}
}

// tryDisable attempts to take an enabled effect away from a task that is
// not yet fully enabled and not being rechecked. Caller holds n.mu (= ep's
// node).
func (s *Scheduler) tryDisable(ep *effInst, n *node) bool {
	st := stateOf(ep.fut)
	for {
		v := st.disabled.Load()
		if v < 1 || v >= recheckOffset {
			// v == 0: all effects enabled, task already submitted.
			// v >= offset: task is being rechecked.
			return false
		}
		if st.disabled.CompareAndSwap(v, v+1) {
			ep.enabled = false
			n.replace(ep)
			return true
		}
	}
}

// --- rechecking (Figs. 5.12–5.13) ------------------------------------------

// recheckTask re-examines every disabled effect of t under the global
// recheck lock (Fig. 5.12).
func (s *Scheduler) recheckTask(t *core.Future, st *futState) {
	if s.tracer != nil {
		s.tracer.Metrics().AdmissionScans.Add(1)
	}
	s.recheckMu.Lock()
	s.recheckTaskLocked(t, st)
	s.recheckMu.Unlock()
}

// recheckTaskLocked is the body of recheckTask; the caller holds
// recheckMu. The batch path's coalesced liveness loop calls it directly so
// one recheckMu acquisition covers a whole group of rechecks.
func (s *Scheduler) recheckTaskLocked(t *core.Future, st *futState) {
	if t.IsDone() {
		// The task finished — normally, or cancelled and descheduled —
		// between the caller's decision and this point. Deschedule removes
		// effects under recheckMu, so touching them here could re-add an
		// effect to the tree after its removal; stand down.
		return
	}
	st.disabled.Add(recheckOffset) // set the rechecking flag
	for _, e := range st.effs {
		n := s.lockContainingNode(e)
		if !e.enabled {
			s.recheckEffect(e, n, true)
			if t.Status() >= core.Enabled {
				break
			}
		} else {
			n.unlock()
		}
	}
	st.disabled.Add(-recheckOffset)
}

// recheckEffect re-checks a single disabled effect, moving it down toward
// the node of its maximal wildcard-free prefix as long as it has no
// conflicts (Fig. 5.12). n is e's containing node, locked on entry;
// recheckEffect unlocks it (or its successor) before returning.
func (s *Scheduler) recheckEffect(e *effInst, n *node, prio bool) {
	for {
		s.visitNode()
		if s.checkAt(n, e, prio) {
			n.unlock()
			return
		}
		d := n.depth
		if e.r.Len() == d || e.r.Elem(d).IsWildcard() {
			if !s.checkBelow(n, e, n, prio) {
				s.enable(e, n)
			}
			n.unlock()
			return
		}
		n.remove(e)
		next := n.getOrCreateChild(e.r.Elem(d))
		next.lock()
		next.add(e)
		n.unlock()
		n = next
	}
}

// lockContainingNode locks the node currently holding e (Fig. 5.13),
// retrying if the effect moved between the load and the lock. The nil
// retry is the pseudocode's "if n = null then goto 2": a concurrent
// Submit has registered the effect but not yet placed it in the tree.
// NotifyBlocked can still meet that state when it walks a blocker chain
// onto a task whose submission is in flight. The liveness net never waits
// here: stalledOldest stands down on a task with an unplaced effect.
func (s *Scheduler) lockContainingNode(e *effInst) *node {
	for {
		n := e.node.Load()
		if n == nil {
			runtime.Gosched()
			continue
		}
		n.lock()
		if e.node.Load() == n {
			return n
		}
		n.unlock()
	}
}

// --- liveness safety net ---------------------------------------------------

// ensureLiveness prioritizes and rechecks the oldest waiting task if no
// task is currently enabled (§5.3.2: "prioritize and recheck an arbitrary
// task in the very rare case that there are waiting tasks remaining but no
// tasks currently running"). Under a pipelined service the case is not
// rare: with twe-serve -par 2 under two v2 clients at pipeline 16 the net
// found nothing enabled on 5–6 % of ops, and in about a third of those the
// oldest waiter was still being placed by its submitter. The net stands
// down on such a task instead of waiting for its placement (see
// stalledOldest).
func (s *Scheduler) ensureLiveness() {
	for {
		oldest, st := s.stalledOldest()
		if oldest == nil {
			return
		}
		oldest.CompareAndSwapStatus(core.Waiting, core.Prioritized)
		s.recheckTask(oldest, st)
		// A prioritized recheck while nothing is enabled always succeeds
		// (every conflicting enabled effect belongs to a non-fully-enabled
		// task and is disablable), so this loop terminates.
		if oldest.Status() >= core.Enabled {
			return
		}
	}
}

// ensureLivenessCoalesced is ensureLiveness for the batch path: the whole
// prioritize-and-recheck loop runs under a single recheckMu acquisition,
// so a SubmitBatch pays for the global recheck lock at most once instead
// of once per submitted task. Lock order (recheckMu → node locks → liveMu)
// is unchanged.
func (s *Scheduler) ensureLivenessCoalesced() {
	if oldest, _ := s.stalledOldest(); oldest == nil {
		return
	}
	s.recheckMu.Lock()
	defer s.recheckMu.Unlock()
	for {
		oldest, st := s.stalledOldest()
		if oldest == nil {
			return
		}
		oldest.CompareAndSwapStatus(core.Waiting, core.Prioritized)
		if s.tracer != nil {
			s.tracer.Metrics().AdmissionScans.Add(1)
		}
		s.recheckTaskLocked(oldest, st)
		if oldest.Status() >= core.Enabled {
			return
		}
	}
}

// stalledOldest returns the oldest waiting task the liveness net should
// prioritize and recheck, or nil when it has nothing to do: a task is
// enabled, no task waits, or the oldest waiter is half-submitted.
//
// An effect not yet placed in the tree belongs to its submitter: Submit
// and SubmitBatch register the future in waiting before their insert
// places its effects, check each effect as they place
// it, and run the net again afterwards. So when the oldest waiter has an
// unplaced effect the net returns and leaves that task to its submitter,
// rather than have lockContainingNode yield under recheckMu until the
// submitter gets a processor back. Placement of a waiting task's effects is
// monotone (an effect moves between nodes but never back to nil), so a task
// found fully placed here stays placed through the recheck.
func (s *Scheduler) stalledOldest() (*core.Future, *futState) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.enabledCount.Load() > 0 || len(s.waiting) == 0 {
		return nil, nil
	}
	var oldest *core.Future
	for f := range s.waiting {
		if f.Status() >= core.Enabled || f.IsDone() {
			continue
		}
		if oldest == nil || f.Seq() < oldest.Seq() {
			oldest = f
		}
	}
	st := stateOf(oldest)
	if st == nil {
		return nil, nil
	}
	for _, e := range st.effs {
		if e.node.Load() == nil {
			return nil, nil
		}
	}
	return oldest, st
}

// removeEffect takes e out of the tree and hands over the waiters
// registered on it, taken inside the same critical section as the removal
// (the caller owns the slice).
func (s *Scheduler) removeEffect(e *effInst) []*effInst {
	n := s.lockContainingNode(e)
	n.remove(e)
	ws := e.waiters
	e.waiters = nil
	n.unlock()
	return ws
}

// --- introspection (tests, benchmarks) --------------------------------------

// NodeCount walks the tree and returns the number of nodes; used by tests.
func (s *Scheduler) NodeCount() int {
	var count func(n *node) int
	count = func(n *node) int {
		n.lock()
		kids := n.sortedChildren()
		n.unlock()
		total := 1
		for _, c := range kids {
			total += count(c)
		}
		return total
	}
	return count(s.root)
}

// Pending returns the number of submitted tasks that are not yet enabled.
// Diagnostics (twe-fuzz deadlock reports) use it; a nonzero value after the
// runtime should have quiesced means tasks are stuck waiting for effects.
func (s *Scheduler) Pending() int {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return len(s.waiting)
}

// PendingEffects returns the number of effects currently held in the tree;
// zero after quiescence.
func (s *Scheduler) PendingEffects() int {
	var count func(n *node) int
	count = func(n *node) int {
		n.lock()
		total := 0
		for i := range n.sets {
			for e := n.sets[i].head; e != nil; e = e.next {
				total++
			}
		}
		kids := n.sortedChildren()
		n.unlock()
		for _, c := range kids {
			total += count(c)
		}
		return total
	}
	return count(s.root)
}
