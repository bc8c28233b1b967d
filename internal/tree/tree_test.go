package tree_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/isolcheck"
	"twe/internal/rpl"
	"twe/internal/schedtest"
	"twe/internal/tree"
)

func TestConformance(t *testing.T) {
	schedtest.Run(t, "tree", func() core.Scheduler { return tree.New() })
}

// TestConformanceOrder: conflicting tasks are admitted in Seq order, with
// and without the root RW fast path (the tree-rootmutex registration).
func TestConformanceOrder(t *testing.T) {
	schedtest.RunOrder(t, "tree", func() core.Scheduler { return tree.New() })
	schedtest.RunOrder(t, "tree-rootmutex", func() core.Scheduler {
		return tree.NewWithOptions(tree.Options{DisableRootRW: true})
	})
}

// TestConformanceNoRootRW re-runs the full conformance suite with the
// §5.5.2 root read-write-lock optimization disabled, so both code paths
// stay correct.
func TestConformanceNoRootRW(t *testing.T) {
	schedtest.Run(t, "tree-noRW", func() core.Scheduler {
		return tree.NewWithOptions(tree.Options{DisableRootRW: true})
	})
}

// TestRootFastPathVsWildcard: a wildcard effect at the root must force
// subsequent inserts onto the write path and still serialize correctly.
func TestRootFastPathVsWildcard(t *testing.T) {
	rt := core.NewRuntime(tree.New(), 4)
	defer rt.Shutdown()
	shared := 0
	sweep := core.NewTask("sweep", es("writes *"), func(_ *core.Ctx, _ any) (any, error) {
		v := shared
		time.Sleep(100 * time.Microsecond)
		shared = v + 1
		return nil, nil
	})
	poke := core.NewTask("poke", es("writes P:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		v := shared
		shared = v + 1
		return nil, nil
	})
	var futs []*core.Future
	for i := 0; i < 40; i++ {
		futs = append(futs, rt.ExecuteLater(sweep, nil), rt.ExecuteLater(poke, nil))
	}
	for _, f := range futs {
		if _, err := rt.GetValue(f); err != nil {
			t.Fatal(err)
		}
	}
	if shared != 80 {
		t.Fatalf("lost updates with root wildcard + fast path: %d != 80", shared)
	}
}

func es(s string) effect.Set { return effect.MustParse(s) }

// TestTreeShape: after running tasks on Root:A:[i], the scheduler tree must
// contain nodes for the wildcard-free prefixes and drain its effects.
func TestTreeShapeAndDrain(t *testing.T) {
	s := tree.New()
	rt := core.NewRuntime(s, 4)
	var futs []*core.Future
	for i := 0; i < 4; i++ {
		task := core.NewTask(fmt.Sprintf("t%d", i),
			effect.NewSet(effect.WriteEff(rpl.New(rpl.N("A"), rpl.Idx(i)))),
			func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
		futs = append(futs, rt.ExecuteLater(task, nil))
	}
	for _, f := range futs {
		rt.GetValue(f)
	}
	rt.Shutdown()
	// Root + A + 4 index children.
	if got := s.NodeCount(); got != 6 {
		t.Errorf("node count = %d, want 6", got)
	}
	if got := s.PendingEffects(); got != 0 {
		t.Errorf("effects not drained: %d remain", got)
	}
}

// TestSiblingSubtreesConcurrent: tasks on disjoint subtrees must overlap
// even when one holds its node for a long time; this is the property that
// distinguishes the tree from the single queue.
func TestSiblingSubtreesConcurrent(t *testing.T) {
	rt := core.NewRuntime(tree.New(), 2)
	defer rt.Shutdown()
	arrived := make(chan int, 2)
	proceed := make(chan struct{})
	mk := func(region string, id int) *core.Task {
		return core.NewTask(fmt.Sprintf("sub%d", id), es("writes "+region),
			func(_ *core.Ctx, _ any) (any, error) {
				arrived <- id
				<-proceed
				return nil, nil
			})
	}
	f1 := rt.ExecuteLater(mk("A:B:C", 1), nil)
	f2 := rt.ExecuteLater(mk("A:D:E", 2), nil)
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("sibling-subtree tasks failed to run concurrently")
		}
	}
	close(proceed)
	rt.GetValue(f1)
	rt.GetValue(f2)
}

// TestWildcardAtAncestor: an enabled effect writes A:* must exclude any
// new effect under A (descendant check), and an enabled effect at A:[1]
// must block a new writes A:* (checkBelow).
func TestWildcardAtAncestor(t *testing.T) {
	rt := core.NewRuntime(tree.New(), 4)
	defer rt.Shutdown()
	running := make(chan string, 8)
	gate := make(chan struct{})
	hold := core.NewTask("hold", es("writes A:*"), func(_ *core.Ctx, _ any) (any, error) {
		running <- "hold"
		<-gate
		return nil, nil
	})
	leaf := core.NewTask("leaf", es("writes A:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		running <- "leaf"
		return nil, nil
	})
	fh := rt.ExecuteLater(hold, nil)
	<-running // hold is running
	fl := rt.ExecuteLater(leaf, nil)
	select {
	case <-running:
		t.Fatal("leaf ran while wildcard ancestor held the subtree")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	rt.GetValue(fh)
	rt.GetValue(fl)
}

func TestWildcardBlockedByDescendant(t *testing.T) {
	rt := core.NewRuntime(tree.New(), 4)
	defer rt.Shutdown()
	running := make(chan string, 8)
	gate := make(chan struct{})
	leaf := core.NewTask("leaf", es("writes A:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		running <- "leaf"
		<-gate
		return nil, nil
	})
	sweep := core.NewTask("sweep", es("writes A:*"), func(_ *core.Ctx, _ any) (any, error) {
		running <- "sweep"
		return nil, nil
	})
	fl := rt.ExecuteLater(leaf, nil)
	<-running
	fs := rt.ExecuteLater(sweep, nil)
	select {
	case <-running:
		t.Fatal("wildcard task ran while a descendant effect was enabled")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	rt.GetValue(fl)
	rt.GetValue(fs)
}

// TestReadersShareNode: many concurrent readers of the same region must all
// run (reads don't conflict), while a writer excludes them.
func TestReadersShareNode(t *testing.T) {
	rt := core.NewRuntime(tree.New(), 4)
	defer rt.Shutdown()
	const n = 4
	arrived := make(chan struct{}, n)
	proceed := make(chan struct{})
	reader := core.NewTask("r", es("reads Data"), func(_ *core.Ctx, _ any) (any, error) {
		arrived <- struct{}{}
		<-proceed
		return nil, nil
	})
	var futs []*core.Future
	for i := 0; i < n; i++ {
		futs = append(futs, rt.ExecuteLater(reader, nil))
	}
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("readers did not run concurrently")
		}
	}
	close(proceed)
	for _, f := range futs {
		rt.GetValue(f)
	}
}

// TestKMeansSchedulerPattern reproduces Fig. 5.2's shape: a work task with
// reads Root plus many accumulate tasks with reads Root writes [idx]. All
// reductions into the same cluster serialize; different clusters proceed.
func TestKMeansSchedulerPattern(t *testing.T) {
	chk := isolcheck.New()
	rt := core.NewRuntime(tree.New(), 4, core.WithMonitor(chk))
	const clusters = 8
	centers := make([]int, clusters)
	acc := make([]*core.Task, clusters)
	for c := 0; c < clusters; c++ {
		acc[c] = core.NewTask(fmt.Sprintf("acc%d", c),
			effect.NewSet(effect.Read(rpl.Root), effect.WriteEff(rpl.New(rpl.Idx(c)))),
			func(c int) core.Body {
				return func(_ *core.Ctx, _ any) (any, error) {
					centers[c]++
					return nil, nil
				}
			}(c))
	}
	work := core.NewTask("work", es("reads Root"), func(ctx *core.Ctx, arg any) (any, error) {
		i := arg.(int)
		_, err := ctx.Execute(acc[i%clusters], nil)
		return nil, err
	})
	const n = 160
	var futs []*core.Future
	for i := 0; i < n; i++ {
		futs = append(futs, rt.ExecuteLater(work, i))
	}
	for _, f := range futs {
		if _, err := rt.GetValue(f); err != nil {
			t.Fatal(err)
		}
	}
	rt.Shutdown()
	total := 0
	for _, c := range centers {
		total += c
	}
	if total != n {
		t.Fatalf("reductions lost: %d/%d", total, n)
	}
	for _, v := range chk.Violations() {
		t.Error(v)
	}
}

// TestFairAdmissionOrder: conflicting waiters are admitted oldest-first
// (§3.1.3's fairness for interactive programs). All tasks are queued while
// a gate task holds the region; after it releases, completions must follow
// submission order.
func TestFairAdmissionOrder(t *testing.T) {
	rt := core.NewRuntime(tree.New(), 4)
	defer rt.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{})
	hold := core.NewTask("hold", es("writes F"), func(_ *core.Ctx, _ any) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	fh := rt.ExecuteLater(hold, nil)
	<-started
	var mu sync.Mutex
	var order []int
	const n = 30
	futs := make([]*core.Future, n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = rt.ExecuteLater(core.NewTask(fmt.Sprintf("w%d", i), es("writes F"),
			func(_ *core.Ctx, _ any) (any, error) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil, nil
			}), nil)
	}
	close(gate)
	rt.GetValue(fh)
	for _, f := range futs {
		rt.GetValue(f)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("admission order %v not oldest-first at %d", order[:i+1], i)
		}
	}
}

// TestSiblingSubtreesNotCompared verifies the paper's central scalability
// mechanism (§5.3): effects on disjoint sibling subtrees are never
// explicitly compared against each other. With n sequentially-completed
// tasks spread over k sibling regions, the number of conflicts() calls
// must stay linear in n — not the O(n²) a flat queue performs.
func TestSiblingSubtreesNotCompared(t *testing.T) {
	s := tree.New()
	rt := core.NewRuntime(s, 1)
	const n = 400
	const k = 16
	for i := 0; i < n; i++ {
		task := core.NewTask("t",
			effect.NewSet(effect.WriteEff(rpl.New(rpl.N("S"), rpl.Idx(i%k), rpl.N("Leaf")))),
			func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
		if _, err := rt.GetValue(rt.ExecuteLater(task, nil)); err != nil {
			t.Fatal(err)
		}
	}
	rt.Shutdown()
	st := s.Stats()
	// Sequential completion means at most a handful of comparisons per
	// insert (same-region predecessor still active, recheck on done);
	// anything quadratic would be tens of thousands.
	if st.ConflictChecks > 4*n {
		t.Errorf("conflict checks = %d for %d tasks; sibling subtrees are being compared", st.ConflictChecks, n)
	}
	if st.FastInserts == 0 {
		t.Errorf("root fast path never taken: %+v", st)
	}
}

// TestRootFastPathCounters: wildcard effects at the root must push inserts
// onto the slow path.
func TestRootFastPathCounters(t *testing.T) {
	s := tree.New()
	rt := core.NewRuntime(s, 2)
	gate := make(chan struct{})
	sweep := core.NewTask("sweep", es("writes *"), func(_ *core.Ctx, _ any) (any, error) {
		<-gate
		return nil, nil
	})
	fs := rt.ExecuteLater(sweep, nil)
	leaf := core.NewTask("leaf", es("writes L:[1]"), func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
	fl := rt.ExecuteLater(leaf, nil) // root holds an enabled wildcard: slow path
	close(gate)
	rt.GetValue(fs)
	rt.GetValue(fl)
	rt.Shutdown()
	st := s.Stats()
	if st.SlowInserts < 2 {
		t.Errorf("expected slow-path inserts while a wildcard holds the root: %+v", st)
	}
}

// TestNoEnabledTasksSafetyNet builds the two-task effect crossover that
// can strand both tasks waiting with nothing running; the liveness net
// must resolve it. Task A: writes P, writes Q. Task B: writes P, writes Q
// (so both need both nodes). With unfortunate interleavings each could
// enable one effect; the net must recover regardless.
func TestNoEnabledTasksSafetyNet(t *testing.T) {
	for round := 0; round < 50; round++ {
		rt := core.NewRuntime(tree.New(), 4)
		var done atomic.Int32
		task := core.NewTask("xy", es("writes P writes Q"), func(_ *core.Ctx, _ any) (any, error) {
			done.Add(1)
			return nil, nil
		})
		var futs []*core.Future
		for i := 0; i < 8; i++ {
			futs = append(futs, rt.ExecuteLater(task, nil))
		}
		ok := make(chan struct{})
		go func() {
			for _, f := range futs {
				rt.GetValue(f)
			}
			close(ok)
		}()
		select {
		case <-ok:
		case <-time.After(15 * time.Second):
			t.Fatal("scheduler stranded conflicting multi-effect tasks")
		}
		rt.Shutdown()
		if done.Load() != 8 {
			t.Fatalf("ran %d of 8", done.Load())
		}
	}
}

// TestManyFineGrainTasks pushes task counts up to catch lost wakeups.
func TestManyFineGrainTasks(t *testing.T) {
	chk := isolcheck.New()
	rt := core.NewRuntime(tree.New(), 8, core.WithMonitor(chk))
	const regions = 16
	const n = 3000
	counters := make([]int, regions)
	tasks := make([]*core.Task, regions)
	for r := 0; r < regions; r++ {
		tasks[r] = core.NewTask(fmt.Sprintf("fg%d", r),
			effect.NewSet(effect.WriteEff(rpl.New(rpl.N("G"), rpl.Idx(r)))),
			func(r int) core.Body {
				return func(_ *core.Ctx, _ any) (any, error) {
					counters[r]++
					return nil, nil
				}
			}(r))
	}
	futs := make([]*core.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = rt.ExecuteLater(tasks[i%regions], nil)
	}
	for _, f := range futs {
		if _, err := rt.GetValue(f); err != nil {
			t.Fatal(err)
		}
	}
	rt.Shutdown()
	for r, c := range counters {
		want := n / regions
		if r < n%regions {
			want++
		}
		if c != want {
			t.Errorf("region %d: %d, want %d", r, c, want)
		}
	}
	for _, v := range chk.Violations() {
		t.Error(v)
	}
}

// TestDescheduleRemovesEffectsAndWakesWaiters: cancelling a waiting task
// must pull its effects out of the tree and recheck the waiters parked
// behind it; the scheduler must audit clean afterwards.
func TestDescheduleRemovesEffectsAndWakesWaiters(t *testing.T) {
	s := tree.New()
	rt := core.NewRuntime(s, 4)
	running := make(chan struct{})
	release := make(chan struct{})
	head := rt.ExecuteLater(core.NewTask("head", es("writes A:[0]"),
		func(_ *core.Ctx, _ any) (any, error) {
			close(running)
			<-release
			return nil, nil
		}), nil)
	<-running

	// victim conflicts with head (wildcard over the same subtree) and
	// parks; its effect instance is placed in the tree as disabled.
	victim := rt.ExecuteLater(core.NewTask("victim", es("writes A:*"),
		func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), nil)
	if victim.Status() >= core.Enabled {
		t.Fatal("victim admitted despite conflicting with running head")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1 parked victim", got)
	}
	before := s.PendingEffects()
	if !victim.Cancel(nil) {
		t.Fatal("waiting victim should be cancellable")
	}
	// Descheduling must pull the victim's effect out of the tree and the
	// waiting set while head still runs and holds its own effect.
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after deschedule, want 0", got)
	}
	if after := s.PendingEffects(); after >= before {
		t.Fatalf("PendingEffects %d -> %d: victim's effects not removed", before, after)
	}
	close(release)
	if _, err := rt.GetValue(head); err != nil {
		t.Fatal(err)
	}
	// A task covered by the victim's former wildcard runs normally.
	tail := rt.ExecuteLater(core.NewTask("tail", es("writes A:[1]"),
		func(_ *core.Ctx, _ any) (any, error) { return "ran", nil }), nil)
	if v, err := rt.GetValue(tail); err != nil || v != "ran" {
		t.Fatalf("tail after deschedule = (%v, %v)", v, err)
	}
	rt.Shutdown()
	if !s.Quiesced() {
		t.Fatalf("tree not quiesced after deschedule: pending=%d pendingEffects=%d",
			s.Pending(), s.PendingEffects())
	}
}

// TestQuiescedAfterMixedExitPaths drives all four exit paths (normal,
// cancelled-waiting, panicked, deadline-expired) through one scheduler
// instance and asserts the audit is clean: no waiting entries, no live
// enabled count, no effects left in the tree.
func TestQuiescedAfterMixedExitPaths(t *testing.T) {
	s := tree.New()
	rt := core.NewRuntime(s, 4)
	running := make(chan struct{})
	release := make(chan struct{})
	head := rt.ExecuteLater(core.NewTask("head", es("writes A"),
		func(_ *core.Ctx, _ any) (any, error) {
			close(running)
			<-release
			return nil, nil
		}), nil)
	<-running
	cancelled := rt.ExecuteLater(core.NewTask("c", es("writes A"),
		func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), nil)
	cancelled.Cancel(nil)
	late := rt.Submit(core.NewTask("d", es("writes A"),
		func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), core.WithDeadline(5*time.Millisecond))
	rt.GetValue(late)
	bomb := rt.ExecuteLater(core.NewTask("p", es("writes B"),
		func(_ *core.Ctx, _ any) (any, error) { panic("tree bomb") }), nil)
	rt.GetValue(bomb)
	close(release)
	if _, err := rt.GetValue(head); err != nil {
		t.Fatal(err)
	}
	ok := rt.ExecuteLater(core.NewTask("ok", es("writes A, writes B"),
		func(_ *core.Ctx, _ any) (any, error) { return 1, nil }), nil)
	if v, err := rt.GetValue(ok); err != nil || v.(int) != 1 {
		t.Fatalf("successor across all regions = (%v, %v)", v, err)
	}
	rt.Shutdown()
	if !s.Quiesced() {
		t.Fatalf("audit dirty after mixed exits: pending=%d pendingEffects=%d",
			s.Pending(), s.PendingEffects())
	}
}
