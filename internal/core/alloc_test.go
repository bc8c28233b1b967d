//go:build !race

package core_test

import (
	"fmt"
	"strings"
	"testing"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/rpl"
)

// roundTasks is the batch size of one budget round: enough tasks that
// per-round constants (the pool's first-use worker start, a map resize)
// vanish in the per-task figure.
const roundTasks = 64

// budgetTasks returns roundTasks task definitions that are pairwise
// disjoint, or that all write one region.
func budgetTasks(conflicting bool) []*core.Task {
	tasks := make([]*core.Task, roundTasks)
	shared := effect.NewSet(effect.WriteEff(rpl.New(rpl.N("R"))))
	for i := range tasks {
		eff := shared
		if !conflicting {
			eff = effect.NewSet(effect.WriteEff(rpl.New(rpl.N("R"), rpl.Idx(i))))
		}
		tasks[i] = core.NewTask("t", eff, noop)
	}
	return tasks
}

// quiesce waits until every future of a round has finished without a
// blocking GetValue (whose lazily made done channel is the waiter's cost,
// not the task's).
func quiesce(rt *core.Runtime, futs []*core.Future) {
	rt.Pool().Quiesce()
	for _, f := range futs {
		if !f.IsDone() {
			panic(fmt.Sprintf("task %d not done after the pool quiesced", f.Seq()))
		}
	}
}

// TestExecuteLaterAllocBudget: from Submit to Done a task allocates its
// Future and, under the tree scheduler, its one-slab state plus the
// scratch of its descent (route and group lists, one set per tree level
// the insert passes) — nothing per enable, run or finish. Disjoint tasks
// (writes R:[i], a two-level descent) are all admitted at once;
// conflicting ones (writes R) wait as a chain, each registered in its
// predecessor's waiter list.
func TestExecuteLaterAllocBudget(t *testing.T) {
	bothScheds(t, 2, func(t *testing.T, rt *core.Runtime) {
		for _, conflicting := range []bool{false, true} {
			budget := 1.0 // naive: the Future
			if strings.HasSuffix(t.Name(), "/tree") {
				budget = 7 // Future, state, and the scratch of two levels
				if conflicting {
					budget = 5 // Future, state, the scratch of one level, and the predecessor's waiter list
				}
			}
			tasks := budgetTasks(conflicting)
			futs := make([]*core.Future, roundTasks)
			round := func() {
				for i, task := range tasks {
					futs[i] = rt.ExecuteLater(task, nil)
				}
				quiesce(rt, futs)
			}
			round()
			perTask := testing.AllocsPerRun(50, round) / roundTasks
			t.Logf("conflicting=%v: %.2f allocations per task", conflicting, perTask)
			if perTask > budget {
				t.Errorf("conflicting=%v: %.2f allocations per task, budget %v", conflicting, perTask, budget)
			}
		}
	})
}

// TestSubmitBatchAllocBudget: a batch's per-group slabs (futures, the
// returned slice, scheduler state) amortize over its members, so a
// disjoint 64-task batch costs well under one allocation per task.
func TestSubmitBatchAllocBudget(t *testing.T) {
	const budget = 0.5
	bothScheds(t, 2, func(t *testing.T, rt *core.Runtime) {
		tasks := budgetTasks(false)
		subs := make([]core.Submission, roundTasks)
		for i, task := range tasks {
			subs[i] = core.Submission{Task: task}
		}
		round := func() { quiesce(rt, rt.SubmitBatch(subs)) }
		round()
		perTask := testing.AllocsPerRun(50, round) / roundTasks
		t.Logf("%.3f allocations per batched task", perTask)
		if perTask > budget {
			t.Errorf("%.3f allocations per batched task, budget %v", perTask, budget)
		}
	})
}

// TestSubmitOptionsAllocFree: Submit, with no options or with value
// options, builds its Submission on the stack, so a task costs exactly
// what ExecuteLater's does.
func TestSubmitOptionsAllocFree(t *testing.T) {
	bothScheds(t, 2, func(t *testing.T, rt *core.Runtime) {
		tasks := budgetTasks(false)
		futs := make([]*core.Future, roundTasks)
		onDone := func(*core.Future) {}
		perTask := func(submit func(*core.Task) *core.Future) float64 {
			round := func() {
				for i, task := range tasks {
					futs[i] = submit(task)
				}
				quiesce(rt, futs)
			}
			round()
			return testing.AllocsPerRun(50, round) / roundTasks
		}
		base := perTask(func(task *core.Task) *core.Future { return rt.ExecuteLater(task, nil) })
		plain := perTask(func(task *core.Task) *core.Future { return rt.Submit(task) })
		opts := perTask(func(task *core.Task) *core.Future {
			return rt.Submit(task, core.WithArg(nil), core.WithOnDone(onDone))
		})
		if plain > base || opts > base {
			t.Fatalf("allocations per task: ExecuteLater %.2f, Submit %.2f, Submit with options %.2f", base, plain, opts)
		}
	})
}
