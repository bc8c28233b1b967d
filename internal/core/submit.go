// The unified task-submission surface and batched group admission
// (DESIGN.md §12). Every way a task enters the runtime — ExecuteLater,
// Execute, Submit, SubmitBatch, and their Ctx variants — funnels through
// the one internal submit path below, so the yield-hook, tracing,
// cancellation and deadline contracts hold uniformly.
//
// SubmitBatch admits a group of tasks in one scheduler call: schedulers
// implementing the optional BatchScheduler interface receive the whole
// group and can amortize their admission hot path (the tree scheduler
// performs one descent per shared RPL prefix instead of one per task);
// schedulers without it fall back to per-task Submit with identical
// semantics.
package core

import (
	"time"

	"twe/internal/obs"
	"twe/internal/pool"
)

// Submission describes one task execution to submit. The zero values of
// the optional fields mean "plain ExecuteLater": no deadline, no
// completion callback.
type Submission struct {
	// Task is the task definition to execute (required).
	Task *Task
	// Arg is passed to the task body.
	Arg any
	// Deadline, when nonzero, arms a per-task deadline after submission:
	// if the future has not finished within the duration it is cancelled
	// with ErrDeadlineExceeded —
	// descheduled if still waiting, cooperatively otherwise. A negative
	// Deadline expires immediately (admission-time load shedding).
	Deadline time.Duration
	// OnDone, when non-nil, is invoked exactly once with the future after
	// it completes — result published, done channel closed — on every exit
	// path: normal return, contained panic, cancellation, deadline expiry.
	// It runs on the finishing goroutine and must not block.
	OnDone func(*Future)
}

// SubmitOption sets one field of a Submission under construction;
// Runtime.Submit and Ctx.Submit apply them in order. An option is a plain
// value rather than a closure, so building and applying options allocates
// nothing and the Submission stays on the submitter's stack.
type SubmitOption struct {
	field    submitField
	arg      any
	deadline time.Duration
	onDone   func(*Future)
}

// submitField names the Submission field a SubmitOption sets.
type submitField uint8

const (
	fieldArg submitField = iota + 1
	fieldDeadline
	fieldOnDone
)

// applyTo sets o's field of s.
func (o SubmitOption) applyTo(s *Submission) {
	switch o.field {
	case fieldArg:
		s.Arg = o.arg
	case fieldDeadline:
		s.Deadline = o.deadline
	case fieldOnDone:
		s.OnDone = o.onDone
	}
}

// WithArg sets the argument passed to the task body.
func WithArg(arg any) SubmitOption { return SubmitOption{field: fieldArg, arg: arg} }

// WithDeadline sets the per-task deadline (see Submission.Deadline).
func WithDeadline(d time.Duration) SubmitOption {
	if d == 0 {
		d = -1 // an explicit zero deadline sheds at admission
	}
	return SubmitOption{field: fieldDeadline, deadline: d}
}

// WithOnDone sets the completion callback (see Submission.OnDone).
func WithOnDone(fn func(*Future)) SubmitOption {
	return SubmitOption{field: fieldOnDone, onDone: fn}
}

// BatchScheduler is the optional scheduler interface for batched group
// admission. SubmitBatch introduces a group of futures, all in Waiting
// state, created in ascending Seq order. The scheduler must register every
// future's effect bookkeeping before making any enable decision for the
// group, preserving the isolation semantics of submitting them one by one
// in Seq order: two interfering futures of one batch must never both be
// enabled, and each must eventually be enabled or recorded as waiting.
// Schedulers without this interface receive per-task Submit calls instead.
type BatchScheduler interface {
	SubmitBatch(fs []*Future)
}

// submit is the one internal submission path. Every public entry point —
// ExecuteLater, Execute, Submit, SubmitBatch and the Ctx variants — is a
// thin wrapper over it (or over its batched phases).
// The sequence is contractual: yield hook at PointSubmit, trace, bail out
// if the hook cancelled the future, mark submitted, hand to the scheduler,
// and only then arm the deadline so a firing timer always observes a fully
// inserted task.
func (rt *Runtime) submit(sub Submission, prioritized bool) *Future {
	f := rt.newFuture(sub.Task, sub.Arg)
	f.onDone = sub.OnDone
	if prioritized {
		f.status.Store(int32(Prioritized))
	}
	rt.yieldAt(f, PointSubmit)
	rt.traceSubmit(f)
	if f.IsDone() {
		// Cancelled by the yield hook before submission; the scheduler
		// must never see it (fault.go).
		return f
	}
	// The inflight count must rise before the submitted flag: the flag is
	// what licenses the matching Done in runBody/finishCancelled.
	rt.inflight.Add(1)
	f.submitted.Store(true)
	rt.sched.Submit(f)
	if sub.Deadline != 0 {
		rt.armDeadline(f, sub.Deadline)
	}
	return f
}

// Submit queues an asynchronous execution of t configured by the given
// options and returns its future. Submit(t) is ExecuteLater(t, nil);
// WithDeadline adds admission-to-completion load shedding.
func (rt *Runtime) Submit(t *Task, opts ...SubmitOption) *Future {
	sub := Submission{Task: t}
	for _, o := range opts {
		o.applyTo(&sub)
	}
	return rt.submit(sub, false)
}

// Submit is the in-task variant of Runtime.Submit (not permitted inside
// @Deterministic code, like every non-Spawn task operation).
func (c *Ctx) Submit(t *Task, opts ...SubmitOption) (*Future, error) {
	if c.fut.deterministic {
		return nil, ErrDeterminism
	}
	return c.rt.Submit(t, opts...), nil
}

// SubmitBatch queues every submission as one admission group and returns
// the futures in submission order. Futures are created (and their
// PointSubmit yield hooks run) in order, so Seq order equals slice order;
// all surviving futures are then handed to the scheduler in a single
// BatchScheduler.SubmitBatch call when the scheduler supports it, else
// submitted one by one. Deadlines are armed only after the whole group is
// submitted. The observable semantics — isolation, per-future lifecycle,
// OnDone — are those of calling ExecuteLater for each submission in order;
// only the admission cost is amortized.
func (rt *Runtime) SubmitBatch(subs []Submission) []*Future {
	// The group's futures come out of one slab (it lives until the whole
	// group retires — the natural lifetime of a batch); per-task allocator
	// traffic is a measurable share of admission cost at batch sizes.
	slab := make([]Future, len(subs))
	futs := make([]*Future, len(subs))
	pending := make([]*Future, 0, len(subs))
	for i, sub := range subs {
		f := &slab[i]
		rt.initFuture(f, sub.Task, sub.Arg)
		f.onDone = sub.OnDone
		rt.yieldAt(f, PointSubmit)
		rt.traceSubmitGroup(f, slab[0].seq)
		futs[i] = f
		if f.IsDone() {
			continue // cancelled by the yield hook before submission
		}
		rt.inflight.Add(1) // before the flag, as in submit()
		f.submitted.Store(true)
		pending = append(pending, f)
	}
	if len(pending) > 0 {
		if tr := rt.tracer; tr != nil {
			m := tr.Metrics()
			m.BatchSubmits.Add(1)
			m.BatchTasks.Add(uint64(len(pending)))
			tr.Emit(obs.Event{Kind: obs.KindBatchSubmit, Task: pending[0].Seq(),
				Other: uint64(len(pending)), Name: pending[0].task.Name})
		}
		if bs, ok := rt.sched.(BatchScheduler); ok {
			bs.SubmitBatch(pending)
		} else {
			for _, f := range pending {
				rt.sched.Submit(f)
			}
		}
	}
	for i, sub := range subs {
		if sub.Deadline != 0 {
			rt.armDeadline(futs[i], sub.Deadline)
		}
	}
	return futs
}

// SubmitBatch is the in-task variant of Runtime.SubmitBatch (not permitted
// inside @Deterministic code).
func (c *Ctx) SubmitBatch(subs []Submission) ([]*Future, error) {
	if c.fut.deterministic {
		return nil, ErrDeterminism
	}
	return c.rt.SubmitBatch(subs), nil
}

// ReadyBatch hands a group of fully-enabled futures to the execution pool
// in one flush (a single pool lock acquisition and dispatch pass), instead
// of one wakeup per future. Batch-aware schedulers collect the futures
// their batched insert enabled and flush them here; semantically it is
// Ready() on each future in order. All futures must belong to one runtime.
// The futures are queued as themselves (pool.Runner), so the flush
// allocates nothing: ReadyBatch compacts the enabled futures to the front
// of fs in place, and the caller must not rely on fs's contents afterwards.
func ReadyBatch(fs []*Future) {
	n := 0
	for _, f := range fs {
		if f.markEnabled() {
			fs[n] = f
			n++
		}
		// else: finished (cancelled) while the batch was in flight
	}
	if n == 0 {
		return
	}
	pool.SubmitAll(fs[0].rt.pool, fs[:n])
}
