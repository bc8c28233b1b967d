// Fault tolerance for the TWE runtime (DESIGN.md §10): cancellation,
// per-task deadlines and panic containment. The paper's model only
// describes tasks that run to completion; this file extends the future
// lifecycle with the failure transitions a production runtime needs while
// preserving the isolation invariant — every exit path (done, cancelled,
// panicked) releases the task's effects exactly once.
//
// The failure model:
//
//   - Future.Cancel requests cancellation with a cause. A future whose
//     body has not started (WAITING, PRIORITIZED, or ENABLED but not yet
//     claimed by a pool worker) finishes immediately with the cause and is
//     descheduled, releasing its effects. A future whose body is running
//     is cancelled cooperatively: the body observes the cause via Ctx.Err
//     and decides how to wind down; its own return value wins if it
//     completes normally.
//   - Submit's WithDeadline option (or Submission.Deadline) arms a
//     deadline timer after submission; expiry cancels the future with
//     ErrDeadlineExceeded (same two paths).
//   - A panicking body is contained as a task failure carrying the panic
//     value and captured stack (*PanicError); the pool worker survives and
//     the effects are released through the normal finish path.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"twe/internal/obs"
)

// Cancellation errors. ErrCancelled is the default Cancel cause;
// ErrDeadlineExceeded is the cause used by expired deadline timers.
var (
	ErrCancelled        = errors.New("core: task cancelled")
	ErrDeadlineExceeded = errors.New("core: task deadline exceeded")
)

// PanicError is the failure recorded on a future whose body panicked. The
// runtime never rethrows the panic; it converts it to this error so the
// pool worker survives and callers can inspect the value and stack.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // goroutine stack captured at the recovery point
}

func (e *PanicError) Error() string {
	if err, ok := e.Value.(error); ok {
		return fmt.Sprintf("task panicked: %v", err)
	}
	return fmt.Sprintf("task panicked: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Descheduler is implemented by schedulers that can remove a future that
// may never have been enabled (cancellation of a WAITING/PRIORITIZED
// task), releasing any effects it holds and re-checking waiters. Done
// remains the notification for futures that were enabled.
type Descheduler interface {
	Deschedule(f *Future)
}

// deschedule removes a cancelled, possibly never-enabled future from the
// scheduler. Schedulers without a Deschedule fast path get Done, which
// both bundled schedulers tolerate for enabled futures.
func (rt *Runtime) deschedule(f *Future) {
	if d, ok := rt.sched.(Descheduler); ok {
		d.Deschedule(f)
		return
	}
	rt.sched.Done(f)
}

// Quiescer is implemented by schedulers that can audit their own
// bookkeeping for emptiness; see Runtime.Quiesced and the Scheduler
// contract in core.go.
type Quiescer interface {
	Quiesced() bool
}

// Quiesced reports whether the scheduler holds no task or effect
// bookkeeping — every submitted future has been enabled, finished and
// released (naive: empty queue; tree: empty waiting set, zero live
// enabled count, empty effect tree). The fault-injection suite asserts it
// after every scenario to prove no exit path leaks effects. Schedulers
// that do not implement Quiescer report true.
func (rt *Runtime) Quiesced() bool {
	if q, ok := rt.sched.(Quiescer); ok {
		return q.Quiesced()
	}
	return true
}

// Cancel requests cancellation of f with the given cause (nil means
// ErrCancelled). The first cause wins; subsequent calls are no-ops.
//
// If the body has not started, the future finishes immediately with the
// cause, its effects are released (descheduling it if it was still
// waiting), and Cancel returns true. If a pool worker or an inline run
// has already claimed the body, cancellation is cooperative — the body
// runs, observes the cause through Ctx.Err and Cancel returns false; the
// future's outcome is whatever the body returns. Cancelling a finished
// future is a no-op returning false.
//
// Cancel is safe from any goroutine once the future has been returned by
// ExecuteLater/Execute/Spawn; calling it earlier (e.g. from a yield hook
// at PointSubmit) is supported only on the submitting goroutine.
func (f *Future) Cancel(cause error) bool {
	if cause == nil {
		cause = ErrCancelled
	}
	if f.IsDone() {
		return false
	}
	f.cancelCause.CompareAndSwap(nil, &cause)
	if f.started.CompareAndSwap(false, true) {
		// The body will never run: this goroutine owns the finish.
		f.rt.finishCancelled(f)
		return true
	}
	// Already claimed by a pool worker or inline run: cooperative. The
	// body runs and observes the cause through Ctx.Err.
	if tr := f.rt.tracer; tr != nil && !f.IsDone() {
		tr.Emit(obs.Event{Kind: obs.KindCancel, Task: f.seq, Name: f.task.Name, Detail: "requested"})
	}
	return false
}

// CancelCause returns the cancellation cause once Cancel has been
// requested (directly or by a deadline), nil otherwise. It is set before
// the future finishes, so bodies may poll it mid-run via Ctx.Err.
func (f *Future) CancelCause() error {
	if p := f.cancelCause.Load(); p != nil {
		return *p
	}
	return nil
}

// Err returns the future's error if it has finished, nil otherwise
// (including while a cancellation is still pending).
func (f *Future) Err() error {
	if !f.IsDone() {
		return nil
	}
	return f.err
}

// Err is the cooperative-cancellation check for task bodies: it returns
// the cancellation cause (ErrCancelled, ErrDeadlineExceeded, or the
// caller-supplied cause) once the task has been cancelled or its deadline
// expired, and nil otherwise. Long-running bodies should poll it and wind
// down when it becomes non-nil; returning the cause marks the future
// failed with it.
func (c *Ctx) Err() error {
	return c.fut.CancelCause()
}

// finishCancelled completes a future whose body never ran with its
// cancellation cause, and releases its effects through Deschedule, which
// handles both waiting and enabled-but-unclaimed bookkeeping. The caller
// must own the started claim.
func (rt *Runtime) finishCancelled(f *Future) {
	cause := f.CancelCause()
	f.result, f.err = nil, cause
	rt.yieldAt(f, PointCancel)
	if tr := rt.tracer; tr != nil {
		tr.Metrics().TasksCancelled.Add(1)
		tr.Emit(obs.Event{Kind: obs.KindCancel, Task: f.seq, Name: f.task.Name, Detail: "descheduled"})
	}
	// The monitor never saw this future run, so OnRun/OnFinish are both
	// skipped. The Done store must still precede the scheduler
	// notification: schedulers treat Done as permission to admit
	// conflicting tasks and as the signal that in-flight rechecks of this
	// future must stand down.
	f.status.Store(int32(Done))
	f.signalDone()
	f.stopTimer()
	if f.spawnParent == nil && f.submitted.Load() {
		rt.deschedule(f)
	}
	if f.onDone != nil {
		f.onDone(f)
	}
	if f.submitted.Load() {
		rt.inflight.Done()
	}
}

func (rt *Runtime) armDeadline(f *Future, timeout time.Duration) {
	if f.IsDone() {
		return
	}
	if timeout < 0 {
		timeout = 0
	}
	tm := time.AfterFunc(timeout, func() {
		if f.IsDone() {
			return
		}
		if tr := rt.tracer; tr != nil {
			tr.Metrics().DeadlinesExceeded.Add(1)
			tr.Emit(obs.Event{Kind: obs.KindDeadline, Task: f.seq, Name: f.task.Name})
		}
		f.Cancel(ErrDeadlineExceeded)
	})
	f.timer.Store(tm)
	if f.IsDone() {
		// Completed while arming; don't leave the timer pending.
		tm.Stop()
	}
}

// stopTimer releases the deadline timer, if any, on completion.
func (f *Future) stopTimer() {
	if tm := f.timer.Load(); tm != nil {
		tm.Stop()
	}
}

// cancelState groups the fault-tolerance fields embedded in Future. The
// zero value means "not cancelled, no deadline"; an untraced, undeadlined
// future pays no allocation for them.
type cancelState struct {
	cancelCause atomic.Pointer[error]
	timer       atomic.Pointer[time.Timer]
	// submitted is set just before Scheduler.Submit; a future cancelled
	// before submission (only possible synchronously from a PointSubmit
	// yield hook) must not be descheduled from a scheduler that never saw
	// it — and ExecuteLater skips Submit for it entirely.
	submitted atomic.Bool
}
