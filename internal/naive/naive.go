// Package naive implements the initial single-queue TWEJava scheduler
// (PPoPP 2013 §3.4.2; dissertation §5.2.2): one queue of tasks — both
// running and waiting — protected by one global lock. A task becomes
// enabled by scanning from its position toward the head of the queue and
// checking its effects against every task ahead of it; conflicting tasks
// therefore generally run in enqueue order. Tasks that a running task
// blocks on are prioritized and may jump ahead of earlier waiting tasks
// (but never violate isolation with enabled tasks).
//
// The design is deliberately unsophisticated — it is the baseline the
// tree-based scheduler (package tree) is evaluated against in Figs. 6.3 and
// 6.4: all scheduling is serialized on the global lock, and each enable
// attempt compares effects against every non-done task ahead in the queue.
package naive

import (
	"fmt"
	"sync"
	"sync/atomic"

	"twe/internal/core"
	"twe/internal/obs"
)

// Scheduler is the single-queue, single-lock scheduler. Create with New
// and pass to core.NewRuntime.
type Scheduler struct {
	mu     sync.Mutex
	queue  []*core.Future // running and waiting tasks, in enqueue order
	tracer *obs.Tracer    // set in Bind; nil when the runtime is untraced
}

// New returns an empty naive scheduler.
func New() *Scheduler { return &Scheduler{} }

var (
	_ core.Scheduler      = (*Scheduler)(nil)
	_ core.BatchScheduler = (*Scheduler)(nil)
	_ core.Descheduler    = (*Scheduler)(nil)
	_ core.Quiescer       = (*Scheduler)(nil)
)

// Bind is called by core.NewRuntime; the scheduler picks up the
// runtime's tracer (if any) for admission metrics and stall events.
func (s *Scheduler) Bind(rt *core.Runtime) { s.tracer = rt.Tracer() }

// stallState is the per-future SchedState of this scheduler, used only
// when the tracer records events: it deduplicates conflict-stall events
// so a task waiting behind one long-running conflicter emits one event
// per distinct blocker, not one per rescan.
type stallState struct {
	stalledOn atomic.Uint64
	effStr    string // cached effect summary for stall events (under s.mu)
}

// Submit appends the future to the queue and attempts to enable waiting
// tasks.
func (s *Scheduler) Submit(f *core.Future) {
	s.mu.Lock()
	if s.tracer.Recording() {
		f.SchedState = &stallState{}
	}
	s.queue = append(s.queue, f)
	s.scanLocked()
	s.noteDepthLocked()
	s.mu.Unlock()
}

// SubmitBatch appends a group of futures under one lock acquisition and
// runs one enable scan for the whole group (core.BatchScheduler). Since
// every future is enqueued before the scan, the FIFO admission decisions
// are exactly those of submitting them one by one in slice order — this is
// the reference semantics the tree scheduler's batched descent is checked
// against in the parity tests.
func (s *Scheduler) SubmitBatch(fs []*core.Future) {
	if len(fs) == 0 {
		return
	}
	s.mu.Lock()
	for _, f := range fs {
		if s.tracer.Recording() {
			f.SchedState = &stallState{}
		}
		s.queue = append(s.queue, f)
	}
	s.scanLocked()
	s.noteDepthLocked()
	s.mu.Unlock()
}

// noteDepthLocked publishes the waiting-task gauge.
func (s *Scheduler) noteDepthLocked() {
	if s.tracer == nil {
		return
	}
	n := int64(0)
	for _, f := range s.queue {
		if f.Status() < core.Enabled {
			n++
		}
	}
	s.tracer.Metrics().SetQueueDepth(n)
}

// NotifyBlocked prioritizes the blocker chain starting at target and
// re-scans: being blocked on may allow target to run through effect
// transfer (§3.1.4).
func (s *Scheduler) NotifyBlocked(caller, target *core.Future) {
	s.mu.Lock()
	for tbl := target; tbl != nil; tbl = tbl.Blocker() {
		tbl.CompareAndSwapStatus(core.Waiting, core.Prioritized)
	}
	s.scanLocked()
	s.noteDepthLocked()
	s.mu.Unlock()
}

// Done removes the finished future from the queue and re-scans, which may
// enable tasks that were waiting on its effects.
func (s *Scheduler) Done(f *core.Future) {
	s.mu.Lock()
	for i, q := range s.queue {
		if q == f {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.scanLocked()
	s.noteDepthLocked()
	s.mu.Unlock()
}

// Deschedule removes a cancelled future that may never have been enabled
// (core.Descheduler). For this scheduler the bookkeeping is identical to
// Done: drop the queue entry and re-scan — the freed queue slot may
// unblock FIFO-ordered waiters behind it.
func (s *Scheduler) Deschedule(f *core.Future) { s.Done(f) }

// Quiesced reports whether the scheduler retains no task bookkeeping;
// the fault-injection suite asserts it after every scenario (no leaked
// queue entries on any exit path).
func (s *Scheduler) Quiesced() bool { return s.Len() == 0 }

// scanLocked attempts to enable every waiting task, in queue order. A task
// can be enabled when (a) it does not conflict with any enabled non-done
// task — the isolation requirement, with conflicts against tasks blocked on
// it ignored per the effect-transfer rule — and (b) unless prioritized, no
// conflicting waiting task is ahead of it in the queue (FIFO fairness,
// "conflicting tasks run in the order they were enqueued").
func (s *Scheduler) scanLocked() {
	if s.tracer != nil {
		s.tracer.Metrics().AdmissionScans.Add(1)
	}
	for i, f := range s.queue {
		st := f.Status()
		if st >= core.Enabled {
			continue
		}
		if s.canEnableLocked(i, f, st == core.Prioritized) {
			f.Ready()
		}
	}
}

func (s *Scheduler) canEnableLocked(pos int, f *core.Future, prioritized bool) bool {
	for j, q := range s.queue {
		if q == f || q.Status() == core.Done {
			continue
		}
		enabled := q.Status() >= core.Enabled
		if !enabled && (prioritized || j > pos) {
			// Waiting tasks behind f never block it; waiting tasks ahead
			// are bypassed by prioritized tasks.
			continue
		}
		conflict := core.ConflictsIgnoringTransfer(f, q)
		if s.tracer != nil {
			m := s.tracer.Metrics()
			m.ConflictChecks.Add(1)
			if conflict {
				m.ConflictHits.Add(1)
				s.traceStall(f, q)
			}
		}
		if conflict {
			return false
		}
	}
	return true
}

// traceStall emits a conflict-stall event once per distinct blocking task
// (scans re-encounter the same conflict until the blocker finishes). A
// tracer that records no events gets no attribution either: Submit then
// attached no stallState, and the nil check returns before any work.
func (s *Scheduler) traceStall(f, q *core.Future) {
	st, _ := f.SchedState.(*stallState)
	if st == nil || st.stalledOn.Swap(q.Seq()) == q.Seq() {
		return
	}
	if st.effStr == "" {
		st.effStr = f.Effects().String()
	}
	// Wait-for attribution (DESIGN.md §14): name the blocker's first
	// effect that interferes with f, mirroring the tree scheduler, so
	// contention profiling works under either scheduler.
	fe, qe := f.Effects(), q.Effects()
attr:
	for i := 0; i < qe.Len(); i++ {
		for j := 0; j < fe.Len(); j++ {
			if qe.At(i).Conflicts(fe.At(j)) {
				e := qe.At(i)
				path := e.Region.String()
				f.SetWaitFor(q.Seq(), path,
					fmt.Sprintf("T%d(%s) %s", q.Seq(), q.Task().Name, e))
				break attr
			}
		}
	}
	s.tracer.Emit(obs.Event{Kind: obs.KindConflictStall, Task: f.Seq(), Other: q.Seq(),
		Name: f.Task().Name, Detail: st.effStr})
}

// Len returns the current queue length (running + waiting); used by tests.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Pending returns the number of queued tasks that are not yet enabled.
// Diagnostics (twe-fuzz deadlock reports) use it; a nonzero value after the
// runtime should have quiesced means tasks are stuck waiting for effects.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.queue {
		if f.Status() < core.Enabled {
			n++
		}
	}
	return n
}
