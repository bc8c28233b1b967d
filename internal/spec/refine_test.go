package spec

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/naive"
	"twe/internal/obs"
	"twe/internal/tree"
)

func newRuntime(t *testing.T, sched string) (*core.Runtime, *obs.Tracer) {
	t.Helper()
	tr := obs.New(obs.WithCapacity(1<<12), obs.WithTaskLog())
	var s core.Scheduler
	switch sched {
	case "naive":
		s = naive.New()
	case "tree":
		s = tree.New()
	default:
		t.Fatalf("unknown scheduler %q", sched)
	}
	return core.NewRuntime(s, 4, core.WithTracer(tr)), tr
}

func refineClean(t *testing.T, tr *obs.Tracer, what string) {
	t.Helper()
	errs, err := RefineTracer(tr, RefineOpts{Strict: true})
	if err != nil {
		t.Fatalf("%s: refine: %v", what, err)
	}
	for _, e := range errs {
		t.Errorf("%s: refinement violation: %s", what, e)
	}
}

// TestRefineAcceptsRealRuns: event logs from real executions on both
// schedulers — conflicting writers, transfer-when-blocked chains, batch
// groups, spawn trees, cancels and deadlines — are behaviors the model
// accepts, including after a round trip through the JSONL dump format.
func TestRefineAcceptsRealRuns(t *testing.T) {
	wA := effect.MustParse("writes Root:A")
	rA := effect.MustParse("reads Root:A")
	wB := effect.MustParse("writes Root:B")

	for _, sched := range []string{"naive", "tree"} {
		t.Run(sched+"/conflict-and-transfer", func(t *testing.T) {
			rt, tr := newRuntime(t, sched)
			// Two interfering writers plus a transfer chain: c getValues b
			// inside its body while both write A.
			b := rt.Submit(core.NewTask("b", wA, func(ctx *core.Ctx, _ any) (any, error) {
				return "b", nil
			}))
			c := rt.Submit(core.NewTask("c", wA, func(ctx *core.Ctx, _ any) (any, error) {
				return ctx.GetValue(b)
			}))
			d := rt.Submit(core.NewTask("d", rA, func(ctx *core.Ctx, _ any) (any, error) {
				return "d", nil
			}))
			for _, f := range []*core.Future{b, c, d} {
				if _, err := rt.GetValue(f); err != nil {
					t.Fatalf("run: %v", err)
				}
			}
			rt.Shutdown()
			refineClean(t, tr, sched)
		})

		t.Run(sched+"/batch-spawn-cancel", func(t *testing.T) {
			rt, tr := newRuntime(t, sched)
			// An interfering batch group.
			futs := rt.SubmitBatch([]core.Submission{
				{Task: core.NewTask("m0", wA, func(*core.Ctx, any) (any, error) { return 0, nil })},
				{Task: core.NewTask("m1", wA, func(*core.Ctx, any) (any, error) { return 1, nil })},
				{Task: core.NewTask("m2", wB, func(*core.Ctx, any) (any, error) { return 2, nil })},
			})
			// A parent spawning a covered child and joining it.
			parent := rt.Submit(core.NewTask("parent", wA, func(ctx *core.Ctx, _ any) (any, error) {
				sf, err := ctx.Spawn(core.NewTask("child", wA, func(*core.Ctx, any) (any, error) {
					return "child", nil
				}), nil)
				if err != nil {
					return nil, err
				}
				return ctx.Join(sf)
			}))
			// Cancel racing execution (every outcome is a model behavior) and
			// an immediately-shed deadline.
			victim := rt.Submit(core.NewTask("victim", wB, func(*core.Ctx, any) (any, error) { return nil, nil }))
			victim.Cancel(errors.New("nope"))
			shed := rt.Submit(core.NewTask("shed", wB, func(*core.Ctx, any) (any, error) { return nil, nil }), core.WithDeadline(-1))
			for _, f := range append(futs, parent) {
				rt.GetValue(f)
			}
			rt.GetValue(victim)
			rt.GetValue(shed)
			rt.Shutdown()
			refineClean(t, tr, sched)

			// Round trip through the JSONL dump: same verdict.
			var buf bytes.Buffer
			if err := tr.WriteEventLog(&buf); err != nil {
				t.Fatal(err)
			}
			log, err := ReadLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			errs, err := Refine(log, RefineOpts{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(errs) != 0 {
				t.Errorf("round-tripped log rejected: %v", errs)
			}
			if len(log.Events) == 0 || len(log.Tasks) == 0 {
				t.Errorf("round trip lost content: %d events, %d tasks", len(log.Events), len(log.Tasks))
			}
		})

		t.Run(sched+"/contended-fanout", func(t *testing.T) {
			// Enough genuinely concurrent interference to make the R1/R2
			// machinery work: 12 writers of one region, 12 readers, run hot.
			rt, tr := newRuntime(t, sched)
			var futs []*core.Future
			var wg sync.WaitGroup
			for i := 0; i < 12; i++ {
				eff, kind := wA, "w"
				if i%2 == 1 {
					eff, kind = rA, "r"
				}
				wg.Add(1) // before Submit: the task may run at once
				futs = append(futs, rt.Submit(core.NewTask(fmt.Sprintf("%s%d", kind, i), eff,
					func(*core.Ctx, any) (any, error) { wg.Done(); return i, nil })))
			}
			for _, f := range futs {
				if _, err := rt.GetValue(f); err != nil {
					t.Fatalf("run: %v", err)
				}
			}
			wg.Wait()
			rt.Shutdown()
			refineClean(t, tr, sched)
		})
	}
}

// mkLog builds a handcrafted Log: tasks maps seq → declared effect.
func mkLog(tasks map[uint64]string, events []obs.Event) *Log {
	l := &Log{Tasks: map[uint64]TaskInfo{}, Events: events}
	for seq, eff := range tasks {
		l.Tasks[seq] = TaskInfo{Eff: effect.MustParse(eff), EffKnown: true}
	}
	return l
}

func wantRule(t *testing.T, log *Log, opts RefineOpts, rule string) {
	t.Helper()
	errs, err := Refine(log, opts)
	if err != nil {
		t.Fatalf("refine: %v", err)
	}
	for _, e := range errs {
		if e.Rule == rule {
			return
		}
	}
	t.Errorf("want a %s violation, got %v", rule, errs)
}

func wantClean(t *testing.T, log *Log, opts RefineOpts) {
	t.Helper()
	errs, err := Refine(log, opts)
	if err != nil {
		t.Fatalf("refine: %v", err)
	}
	if len(errs) != 0 {
		t.Errorf("want acceptance, got %v", errs)
	}
}

// TestRefineRejects: each refinement rule fires on a handcrafted log
// exhibiting exactly that contract break.
func TestRefineRejects(t *testing.T) {
	ww := map[uint64]string{1: "writes Root:A", 2: "writes Root:A"}

	t.Run("R1-running-overlap", func(t *testing.T) {
		wantRule(t, mkLog(ww, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
			{TS: 4, Kind: obs.KindSubmit, Task: 2},
			{TS: 5, Kind: obs.KindEnable, Task: 2},
			{TS: 6, Kind: obs.KindStart, Task: 2},
		}), RefineOpts{}, "R1-running-isolation")
	})

	t.Run("R2-no-transfer-chain", func(t *testing.T) {
		// Task 1 admitted and blocked on unrelated task 3; admitting the
		// conflicting task 2 is NOT licensed (the chain reaches 3, not 2).
		log := mkLog(map[uint64]string{
			1: "writes Root:A", 2: "writes Root:A", 3: "reads Root:B",
		}, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
			{TS: 4, Kind: obs.KindSubmit, Task: 3},
			{TS: 5, Kind: obs.KindBlock, Task: 1, Other: 3},
			{TS: 6, Kind: obs.KindSubmit, Task: 2},
			{TS: 7, Kind: obs.KindEnable, Task: 2},
		})
		wantRule(t, log, RefineOpts{}, "R2-admission-isolation")
	})

	t.Run("R2-transfer-chain-accepted", func(t *testing.T) {
		// Same shape but blocked on the admitted task itself: the §3.1.4
		// license. The chain makes the admission legal.
		wantClean(t, mkLog(ww, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
			{TS: 4, Kind: obs.KindSubmit, Task: 2},
			{TS: 5, Kind: obs.KindBlock, Task: 1, Other: 2},
			{TS: 6, Kind: obs.KindEnable, Task: 2},
			{TS: 7, Kind: obs.KindStart, Task: 2},
			{TS: 8, Kind: obs.KindFinish, Task: 2},
			{TS: 9, Kind: obs.KindUnblock, Task: 1, Other: 2},
			{TS: 10, Kind: obs.KindFinish, Task: 1},
		}), RefineOpts{Strict: true})
	})

	t.Run("R3-late-batch-member", func(t *testing.T) {
		// Group 1: member 1 admitted before member 2 even registered.
		wantRule(t, mkLog(ww, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1, Other: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindSubmit, Task: 2, Other: 1},
		}), RefineOpts{}, "R3-register-before-enable")
	})

	t.Run("R4-no-quiescence", func(t *testing.T) {
		log := mkLog(ww, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
		})
		wantRule(t, log, RefineOpts{Strict: true}, "R4-quiescence")
		wantClean(t, log, RefineOpts{}) // non-strict: partial dumps pass
	})

	t.Run("R5-start-without-submit", func(t *testing.T) {
		wantRule(t, mkLog(ww, []obs.Event{
			{TS: 1, Kind: obs.KindStart, Task: 1},
		}), RefineOpts{}, "R5-lifecycle")
	})

	t.Run("R5-double-terminal", func(t *testing.T) {
		wantRule(t, mkLog(ww, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
			{TS: 4, Kind: obs.KindFinish, Task: 1},
			{TS: 5, Kind: obs.KindFinish, Task: 1},
		}), RefineOpts{}, "R5-lifecycle")
	})

	t.Run("spawn-related-overlap-forgiven", func(t *testing.T) {
		// Parent and spawned child run interfering effects concurrently:
		// covered by the spawn transfer discipline, not an R1 violation.
		wantClean(t, mkLog(map[uint64]string{
			1: "writes Root:A", 5: "writes Root:A",
		}, []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
			{TS: 4, Kind: obs.KindSpawn, Task: 1, Other: 5},
			{TS: 5, Kind: obs.KindEnable, Task: 5},
			{TS: 6, Kind: obs.KindStart, Task: 5},
			{TS: 7, Kind: obs.KindFinish, Task: 5},
			{TS: 8, Kind: obs.KindJoin, Task: 1, Other: 5},
			{TS: 9, Kind: obs.KindFinish, Task: 1},
		}), RefineOpts{Strict: true})
	})

	t.Run("unknown-effects-forgiven", func(t *testing.T) {
		// No task log: the effect rules are vacuous, lifecycle still holds.
		wantClean(t, &Log{Tasks: map[uint64]TaskInfo{}, Events: []obs.Event{
			{TS: 1, Kind: obs.KindSubmit, Task: 1},
			{TS: 2, Kind: obs.KindEnable, Task: 1},
			{TS: 3, Kind: obs.KindStart, Task: 1},
			{TS: 4, Kind: obs.KindSubmit, Task: 2},
			{TS: 5, Kind: obs.KindEnable, Task: 2},
			{TS: 6, Kind: obs.KindStart, Task: 2},
			{TS: 7, Kind: obs.KindFinish, Task: 1},
			{TS: 8, Kind: obs.KindFinish, Task: 2},
		}}, RefineOpts{Strict: true})
	})
}

// TestRefineRefusesWrappedLogs: a ring-wrapped or task-dropped log gets
// an error, not a verdict.
func TestRefineRefusesWrappedLogs(t *testing.T) {
	if _, err := Refine(&Log{Dropped: 3}, RefineOpts{}); err == nil {
		t.Error("wrapped event ring accepted")
	}
	if _, err := Refine(&Log{TaskDropped: 1}, RefineOpts{}); err == nil {
		t.Error("dropped task records accepted")
	}
}

// TestReadLogErrors: malformed dumps are rejected with location info.
func TestReadLogErrors(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"bad-version", `{"v":9,"events":0,"tasks":0}` + "\n"},
		{"truncated-events", `{"v":1,"events":2,"tasks":0}` + "\n" + `{"ts":1,"kind":"submit","task":1}` + "\n"},
		{"unknown-kind", `{"v":1,"events":1,"tasks":0}` + "\n" + `{"ts":1,"kind":"warp","task":1}` + "\n"},
		{"trailing", `{"v":1,"events":0,"tasks":0}` + "\n" + `{"ts":1,"kind":"submit"}` + "\n"},
	} {
		if _, err := ReadLog(bytes.NewReader([]byte(tc.in))); err == nil {
			t.Errorf("%s: ReadLog accepted malformed input", tc.name)
		}
	}
}
