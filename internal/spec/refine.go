// The trace-refinement oracle: replays an internal/obs event log as a
// candidate behavior the admission model must accept. Where Explore
// proves the model itself safe on small closed worlds, Refine checks
// that what a real scheduler actually did — on a fuzz run, a unit test,
// or a drained twe-serve daemon — is a behavior of that model.
//
// The oracle is deliberately forgiving where the log under-determines
// the runtime (unknown effects, spawned-task subtrees, racy advisory
// events): a forgiven behavior can only hide a bug, never invent one,
// so Refine reports no false rejections. The rules:
//
//	R1 running-isolation:   no two interfering tasks run concurrently
//	                        (unless spawn-related — the parent's declared
//	                        effect covers the child by construction).
//	R2 admission-isolation: a task is only admitted over a conflicting
//	                        holder if that holder is blocked with a
//	                        blocker chain reaching the new task (§3.1.4
//	                        effect transfer).
//	R3 register-before-enable: no SubmitBatch member is admitted before
//	                        a co-member's submission is recorded.
//	R4 quiescence:          with Strict set, every task is terminal by
//	                        the end of the log and no effects are held.
//	R5 lifecycle:           per-task event order fits the model's state
//	                        machine (no start before enable, no double
//	                        terminal, no enable before submit/spawn, …).
//
// Refine refuses logs whose ring wrapped (events dropped): with the
// prefix missing every verdict would be meaningless.
package spec

import (
	"fmt"
	"sort"

	"twe/internal/effect"
	"twe/internal/obs"
)

// RefineOpts configures a refinement run.
type RefineOpts struct {
	// Strict additionally requires quiescence (R4): the log must come
	// from a run that was drained/shut down before export. Schedfuzz and
	// the twe-serve drain path satisfy this; partial dumps do not.
	Strict bool
}

// RefineError is one way the log is not a behavior of the model.
type RefineError struct {
	// Rule names the violated refinement rule (R1..R5, E1).
	Rule string
	// TS is the offending event's timestamp (0 for end-of-log checks).
	TS int64
	// Task and Other identify the tasks involved (Other 0 = none).
	Task, Other uint64
	// Detail is the human-readable account.
	Detail string
}

func (e RefineError) String() string {
	s := fmt.Sprintf("%s @%dns T%d", e.Rule, e.TS, e.Task)
	if e.Other != 0 {
		s += fmt.Sprintf("/T%d", e.Other)
	}
	return s + ": " + e.Detail
}

// TaskInfo is what the log knows about one task.
type TaskInfo struct {
	Name string
	// Eff is the parsed declared effect summary; EffKnown is false when
	// the log carries no (or an unparseable) summary for the task, which
	// exempts it from the effect-based rules.
	Eff      effect.Set
	EffKnown bool
}

// Log is a replayable event log: the refinement input.
type Log struct {
	Tasks       map[uint64]TaskInfo
	Events      []obs.Event
	Dropped     uint64
	TaskDropped uint64
}

// FromTracer snapshots a tracer into a Log (export after quiescence,
// like Events itself).
func FromTracer(tr *obs.Tracer) *Log {
	l := &Log{Tasks: map[uint64]TaskInfo{}, Events: tr.Events(),
		Dropped: tr.Dropped(), TaskDropped: tr.TaskLogDropped()}
	for _, r := range tr.Tasks() {
		ti := TaskInfo{Name: r.Name}
		if set, err := effect.Parse(r.Eff); err == nil {
			ti.Eff, ti.EffKnown = set, true
		}
		l.Tasks[r.Seq] = ti
	}
	return l
}

// RefineTracer refines a tracer's retained events directly; the common
// wiring for in-process harnesses (schedfuzz).
func RefineTracer(tr *obs.Tracer, opts RefineOpts) ([]RefineError, error) {
	if tr == nil {
		return nil, fmt.Errorf("spec: refine: nil tracer")
	}
	return Refine(FromTracer(tr), opts)
}

// emitRank orders events sharing one timestamp: releases and terminal
// transitions happen-before the admissions they license, so at equal
// clocks the release must replay first — the sorted order is then
// consistent with some real-time emission order (the tracer clock is
// monotonic, so distinct timestamps already are).
func emitRank(k obs.Kind) int {
	switch k {
	case obs.KindFinish, obs.KindCancel, obs.KindDeadline, obs.KindBlock, obs.KindPanic:
		return 0
	case obs.KindEnable, obs.KindStart, obs.KindUnblock, obs.KindJoin:
		return 2
	}
	return 1
}

// rphase is the oracle's per-task lifecycle state.
type rphase uint8

const (
	runknown rphase = iota
	rsubmitted
	renabled
	rrunning
	rblocked
	rterminal
)

func (p rphase) String() string {
	return [...]string{"unknown", "submitted", "enabled", "running", "blocked", "terminal"}[p]
}

type rtask struct {
	phase     rphase
	scheduled bool   // saw a Submit event (vs spawned or merely referenced)
	spawned   bool   // introduced by a Spawn event
	parent    uint64 // spawn parent, when spawned
	blockedOn uint64 // current getValue target while rblocked
	group     uint64 // SubmitBatch group id from the Submit event
}

// refiner carries one replay's state.
type refiner struct {
	log     *Log
	tasks   map[uint64]*rtask
	running map[uint64]struct{} // tasks in rrunning
	holders map[uint64]struct{} // scheduler-admitted tasks holding effects
	groupOn map[uint64]bool     // batch group id → some member admitted
	errs    []RefineError
}

// maxRefineErrors bounds the report; a broken scheduler fails fast, it
// does not need ten thousand repetitions.
const maxRefineErrors = 64

// Refine replays the log against the admission model and returns every
// refinement violation. The error return is for unusable input — a
// wrapped ring or dropped task records — where no verdict is possible.
func Refine(log *Log, opts RefineOpts) ([]RefineError, error) {
	if log.Dropped > 0 || log.TaskDropped > 0 {
		return nil, fmt.Errorf("spec: refine: log is incomplete (%d events, %d task records dropped); re-trace with a larger ring",
			log.Dropped, log.TaskDropped)
	}
	r := &refiner{log: log,
		tasks:   map[uint64]*rtask{},
		running: map[uint64]struct{}{},
		holders: map[uint64]struct{}{},
		groupOn: map[uint64]bool{},
	}

	events := make([]obs.Event, len(log.Events))
	copy(events, log.Events)
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].TS != events[b].TS {
			return events[a].TS < events[b].TS
		}
		return emitRank(events[a].Kind) < emitRank(events[b].Kind)
	})

	for i := range events {
		if len(r.errs) >= maxRefineErrors {
			break
		}
		r.step(&events[i])
	}

	if opts.Strict && len(r.errs) < maxRefineErrors {
		for seq, t := range r.tasks {
			if t.phase != rterminal && t.phase != runknown {
				r.fail("R4-quiescence", 0, seq, 0,
					fmt.Sprintf("task %s at end of log; a drained run leaves every task terminal", t.phase))
			}
		}
	}
	sort.Slice(r.errs, func(a, b int) bool {
		if r.errs[a].TS != r.errs[b].TS {
			return r.errs[a].TS < r.errs[b].TS
		}
		return r.errs[a].Task < r.errs[b].Task
	})
	return r.errs, nil
}

func (r *refiner) fail(rule string, ts int64, task, other uint64, detail string) {
	r.errs = append(r.errs, RefineError{Rule: rule, TS: ts, Task: task, Other: other, Detail: detail})
}

// task returns (creating if needed) the state record for seq.
func (r *refiner) task(seq uint64) *rtask {
	t := r.tasks[seq]
	if t == nil {
		t = &rtask{}
		r.tasks[seq] = t
	}
	return t
}

// eff looks up a task's declared summary (ok only when the log knows it).
func (r *refiner) eff(seq uint64) (effect.Set, bool) {
	ti, ok := r.log.Tasks[seq]
	if !ok || !ti.EffKnown {
		return effect.Set{}, false
	}
	return ti.Eff, true
}

// conflict reports interference when both summaries are known; unknown
// pairs are forgiven (leniency cannot invent violations).
func (r *refiner) conflict(a, b uint64) bool {
	ea, oka := r.eff(a)
	eb, okb := r.eff(b)
	return oka && okb && ea.Conflicts(eb)
}

// spawnRelated reports that one task is a spawn-ancestor of the other:
// their interference is covered by the §3.1.5 transfer discipline, which
// the model does not track (the parent's declared summary covers the
// child's by the Spawn covering check).
func (r *refiner) spawnRelated(a, b uint64) bool {
	return r.spawnAncestor(a, b) || r.spawnAncestor(b, a)
}

func (r *refiner) spawnAncestor(anc, desc uint64) bool {
	cur := desc
	for hops := 0; hops < 64; hops++ {
		t := r.tasks[cur]
		if t == nil || !t.spawned {
			return false
		}
		if t.parent == anc {
			return true
		}
		cur = t.parent
	}
	return false
}

// chainReaches reports that `from` is blocked with a blocker chain
// transitively reaching `to` — the §3.1.4 license for admitting `to`
// over `from`'s held conflicting effects.
func (r *refiner) chainReaches(from, to uint64) bool {
	cur := from
	seen := map[uint64]bool{}
	for {
		t := r.tasks[cur]
		if t == nil || t.phase != rblocked || seen[cur] {
			return false
		}
		seen[cur] = true
		if t.blockedOn == to {
			return true
		}
		cur = t.blockedOn
	}
}

// checkRunning is R1 at the moment task seq (re)enters the running set.
func (r *refiner) checkRunning(ev *obs.Event) {
	for other := range r.running {
		if other == ev.Task || !r.conflict(ev.Task, other) || r.spawnRelated(ev.Task, other) {
			continue
		}
		ea, _ := r.eff(ev.Task)
		eb, _ := r.eff(other)
		r.fail("R1-running-isolation", ev.TS, ev.Task, other,
			fmt.Sprintf("interfering tasks running concurrently: {%s} vs {%s}", ea, eb))
	}
}

// admit is R2 at a task's first admission (its first Enable — or the
// first event proving an Enable already happened). Scheduler-submitted
// tasks only: spawned children are admitted by their parent's covering
// transfer, which the scheduler (and this model) never tracks.
func (r *refiner) admit(t *rtask, ev *obs.Event) {
	if !t.scheduled {
		return
	}
	for holder := range r.holders {
		if holder == ev.Task || !r.conflict(ev.Task, holder) {
			continue
		}
		if !r.chainReaches(holder, ev.Task) {
			r.fail("R2-admission-isolation", ev.TS, ev.Task, holder,
				"admitted over a conflicting holder with no blocked-transfer chain to it")
		}
	}
	r.holders[ev.Task] = struct{}{}
	if t.group != 0 {
		r.groupOn[t.group] = true
	}
}

// terminal retires a task on any exit path: effects release, sets drop.
func (r *refiner) terminal(seq uint64) {
	t := r.task(seq)
	t.phase = rterminal
	delete(r.running, seq)
	delete(r.holders, seq)
}

func (r *refiner) step(ev *obs.Event) {
	switch ev.Kind {
	case obs.KindSubmit:
		t := r.task(ev.Task)
		if t.phase != runknown {
			r.fail("R5-lifecycle", ev.TS, ev.Task, 0, fmt.Sprintf("submit of a %s task", t.phase))
			return
		}
		t.phase, t.scheduled, t.group = rsubmitted, true, ev.Other
		// R3: every member of a batch registers before any member is
		// admitted; a member submitting after a co-member's enable means
		// the scheduler saw the group piecewise.
		if ev.Other != 0 && r.groupOn[ev.Other] {
			r.fail("R3-register-before-enable", ev.TS, ev.Task, ev.Other,
				"batch member submitted after a co-member was already admitted")
		}

	case obs.KindSpawn:
		c := r.task(ev.Other)
		c.spawned, c.parent = true, ev.Task

	case obs.KindEnable:
		t := r.task(ev.Task)
		switch t.phase {
		case renabled, rrunning, rblocked, rterminal:
			// Racing Ready calls can re-emit Enable for an already-enabled
			// future (the markEnabled CAS tolerates Enabled→Enabled), and
			// the emission itself races the status CAS: a Cancel or an
			// inline run can observe (and log) the admitted future before
			// the Enable line lands. Admission was already accounted at the
			// first event that proved it, so later Enables carry nothing.
			return
		case runknown:
			if !t.spawned {
				r.fail("R5-lifecycle", ev.TS, ev.Task, 0, "enable of a task never submitted or spawned")
				return
			}
		}
		r.admit(t, ev)
		t.phase = renabled

	case obs.KindStart:
		t := r.task(ev.Task)
		switch t.phase {
		case renabled:
		case rsubmitted:
			// The Enable emission races the status CAS (see KindEnable): an
			// inline run can log its Start first. Account the admission here.
			r.admit(t, ev)
		case runknown:
			if !t.spawned {
				r.fail("R5-lifecycle", ev.TS, ev.Task, 0, "start of a task never submitted or spawned")
			}
		default:
			r.fail("R5-lifecycle", ev.TS, ev.Task, 0, fmt.Sprintf("start of a %s task", t.phase))
			return
		}
		t.phase = rrunning
		r.checkRunning(ev)
		r.running[ev.Task] = struct{}{}

	case obs.KindBlock:
		t := r.task(ev.Task)
		if t.phase != rrunning {
			r.fail("R5-lifecycle", ev.TS, ev.Task, ev.Other, fmt.Sprintf("block of a %s task", t.phase))
		}
		t.phase, t.blockedOn = rblocked, ev.Other
		delete(r.running, ev.Task)

	case obs.KindUnblock:
		t := r.task(ev.Task)
		if t.phase != rblocked {
			r.fail("R5-lifecycle", ev.TS, ev.Task, ev.Other, fmt.Sprintf("unblock of a %s task", t.phase))
		}
		t.phase, t.blockedOn = rrunning, 0
		r.checkRunning(ev)
		r.running[ev.Task] = struct{}{}

	case obs.KindFinish:
		t := r.task(ev.Task)
		switch t.phase {
		case rrunning:
		case rblocked:
			// A finish can share its blocker's wake timestamp; treat it as
			// the implicit unblock the clock could not separate.
		case rterminal:
			r.fail("R5-lifecycle", ev.TS, ev.Task, 0, "second terminal event")
			return
		default:
			r.fail("R5-lifecycle", ev.TS, ev.Task, 0, fmt.Sprintf("finish of a %s task that never started", t.phase))
		}
		r.terminal(ev.Task)

	case obs.KindCancel:
		t := r.task(ev.Task)
		switch ev.Detail {
		case "descheduled":
			// Cancelled before the body ran: legal from waiting or from
			// enabled-but-unclaimed (Cancel's started-race win).
			if t.phase == rrunning || t.phase == rblocked || t.phase == rterminal {
				r.fail("R5-lifecycle", ev.TS, ev.Task, 0, fmt.Sprintf("descheduling cancel of a %s task", t.phase))
				return
			}
			r.terminal(ev.Task)
		default:
			// "requested": an advisory cooperative-cancel mark; the task
			// still exits through Finish. May legally race past Finish.
		}

	case obs.KindPanic, obs.KindDeadline, obs.KindJoin, obs.KindBatchSubmit:
		// Panic precedes its Finish; Deadline precedes its Cancel (and can
		// race past a Finish that beat the timer); Join is the parent-side
		// transfer-back mark; BatchSubmit duplicates per-member Submits.

	default:
		// Scheduler/oracle/service advisory kinds (status, conflict-stall,
		// scan, violation, peak, retry, breaker, req-*) carry no lifecycle
		// transition. KindRetry.Task is a dyneff transaction id, not a
		// future seq, so it must not touch task state.
	}
}
