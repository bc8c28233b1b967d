package schedtest

import (
	"runtime"
	"testing"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/rpl"
)

// Batch-admission conformance (DESIGN.md §12): SubmitBatch must behave
// like submitting the group one by one in slice order — same results, same
// isolation — whether the scheduler implements core.BatchScheduler (both
// bundled schedulers do) or falls back to per-task Submit. The normative
// register-before-enable contract these tests enforce is stated on
// core.BatchScheduler (core/submit.go); batchIntraConflict and
// batchWildcardOrder are its direct probes. The isolation checker
// installed by newRT is the authoritative oracle in every test here; the
// result assertions catch lost updates directly.

// batchDisjoint: a conflict-free 64-task batch all runs and delivers
// per-task results.
func batchDisjoint(t *testing.T, mk Factory) {
	rt, _, finish := newRT(t, mk, 4)
	defer finish()
	subs := make([]core.Submission, 64)
	for i := range subs {
		i := i
		subs[i] = core.Submission{
			Task: core.NewTask("bd",
				effect.NewSet(effect.WriteEff(rpl.New(rpl.N("R"), rpl.Idx(i)))),
				func(_ *core.Ctx, _ any) (any, error) { return i * 2, nil }),
		}
	}
	futs := rt.SubmitBatch(subs)
	if len(futs) != len(subs) {
		t.Fatalf("got %d futures, want %d", len(futs), len(subs))
	}
	for i, f := range futs {
		v, err := rt.GetValue(f)
		if err != nil || v.(int) != i*2 {
			t.Fatalf("task %d: got (%v, %v), want (%d, nil)", i, v, err, i*2)
		}
	}
}

// batchIntraConflict: every member of one batch interferes with every
// other (writes Acc); isolation must serialize them even though they were
// registered together, so the deliberately non-atomic increments cannot
// lose updates.
func batchIntraConflict(t *testing.T, mk Factory) {
	rt, _, finish := newRT(t, mk, 4)
	defer finish()
	const n = 32
	counter := 0
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{
			Task: core.NewTask("bc", es("writes Acc"),
				func(_ *core.Ctx, _ any) (any, error) {
					v := counter
					runtime.Gosched() // widen the lost-update window
					counter = v + 1
					return nil, nil
				}),
		}
	}
	if err := rt.WaitAll(rt.SubmitBatch(subs)); err != nil {
		t.Fatal(err)
	}
	if counter != n {
		t.Errorf("counter = %d, want %d (lost update: batch members ran concurrently)", counter, n)
	}
}

// batchWildcardOrder: one batch mixing a wildcard summary (writes R:*)
// with the per-index summaries it covers (writes R:[i]), in both slice
// orders. The wildcard task lives at an inner tree node while the indexed
// tasks descend past it — the shape where a batched descent could miss a
// groupmate that was routed below but not yet placed.
func batchWildcardOrder(t *testing.T, mk Factory) {
	for _, order := range []string{"wildcard-first", "wildcard-last"} {
		order := order
		t.Run(order, func(t *testing.T) {
			rt, _, finish := newRT(t, mk, 4)
			defer finish()
			const n = 8
			slots := make([]int, n)
			var sweeps int
			indexed := make([]core.Submission, 0, n)
			for i := 0; i < n; i++ {
				i := i
				indexed = append(indexed, core.Submission{
					Task: core.NewTask("idx",
						effect.NewSet(effect.WriteEff(rpl.New(rpl.N("R"), rpl.Idx(i)))),
						func(_ *core.Ctx, _ any) (any, error) {
							v := slots[i]
							runtime.Gosched()
							slots[i] = v + 1
							return nil, nil
						}),
				})
			}
			sweep := core.Submission{
				Task: core.NewTask("sweep", es("writes R:*"),
					func(_ *core.Ctx, _ any) (any, error) {
						for i := range slots {
							v := slots[i]
							runtime.Gosched()
							slots[i] = v + 1
						}
						sweeps++
						return nil, nil
					}),
			}
			var subs []core.Submission
			if order == "wildcard-first" {
				subs = append(append(subs, sweep), indexed...)
			} else {
				subs = append(append(subs, indexed...), sweep)
			}
			if err := rt.WaitAll(rt.SubmitBatch(subs)); err != nil {
				t.Fatal(err)
			}
			if sweeps != 1 {
				t.Errorf("sweeps = %d, want 1", sweeps)
			}
			for i, v := range slots {
				if v != 2 {
					t.Errorf("slot %d = %d, want 2 (indexed + sweep)", i, v)
				}
			}
		})
	}
}

// batchMixedPure: pure tasks inside a batch are admitted immediately and
// still deliver results alongside effectful groupmates.
func batchMixedPure(t *testing.T, mk Factory) {
	rt, _, finish := newRT(t, mk, 4)
	defer finish()
	subs := make([]core.Submission, 0, 12)
	for i := 0; i < 12; i++ {
		i := i
		eff := es("pure")
		if i%3 != 0 {
			eff = effect.NewSet(effect.WriteEff(rpl.New(rpl.N("M"), rpl.Idx(i))))
		}
		subs = append(subs, core.Submission{
			Task: core.NewTask("mp", eff, func(_ *core.Ctx, _ any) (any, error) { return i, nil }),
			Arg:  i,
		})
	}
	futs := rt.SubmitBatch(subs)
	for i, f := range futs {
		v, err := rt.GetValue(f)
		if err != nil || v.(int) != i {
			t.Fatalf("task %d: got (%v, %v), want (%d, nil)", i, v, err, i)
		}
	}
}

// batchRepeated: rounds of conflicting batches interleaved with direct
// submissions keep the scheduler's bookkeeping consistent (the Quiesced
// audit at the end would catch a leak; the monitor catches overlap).
func batchRepeated(t *testing.T, mk Factory) {
	rt, _, finish := newRT(t, mk, 4)
	defer finish()
	total := 0
	add := core.NewTask("acc", es("writes Acc"), func(_ *core.Ctx, arg any) (any, error) {
		v := total
		runtime.Gosched()
		total = v + arg.(int)
		return nil, nil
	})
	want := 0
	for round := 0; round < 10; round++ {
		subs := make([]core.Submission, 6)
		for i := range subs {
			subs[i] = core.Submission{Task: add, Arg: round + i}
			want += round + i
		}
		futs := rt.SubmitBatch(subs)
		extra := rt.ExecuteLater(add, 100)
		want += 100
		if err := rt.WaitAll(append(futs, extra)); err != nil {
			t.Fatal(err)
		}
	}
	if total != want {
		t.Errorf("total = %d, want %d", total, want)
	}
	// GetValue returns once a future's done channel closes, before the
	// runtime passes the future to the scheduler's Done; drain the runtime
	// so the audit sees every release.
	rt.Shutdown()
	if !rt.Quiesced() {
		t.Error("scheduler did not quiesce after batched rounds")
	}
}
