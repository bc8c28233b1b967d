package tree

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/isolcheck"
)

// TestPipelineWaitsAsChain: one submitter keeps a window of 16 ops in
// flight, each writing its session region and reading or writing one of
// four shard regions, the shape of a pipelined twe-serve connection. Each
// newcomer parks behind its youngest elder, so a Done rechecks one
// successor instead of the whole window, and the conflict checks per task
// stay a small constant (the recheck storm this replaced ran 7–8).
func TestPipelineWaitsAsChain(t *testing.T) {
	const (
		n      = 4000
		window = 16
	)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			s := New()
			chk := isolcheck.New()
			rt := core.NewRuntime(s, par, core.WithMonitor(chk))
			tasks := make([]*core.Task, 8)
			for i := range tasks {
				rw := "writes"
				if i/4 == 1 {
					rw = "reads"
				}
				tasks[i] = core.NewTask("op", effect.MustParse(fmt.Sprintf("writes Session:[0], %s Shard:[%d]", rw, i%4)),
					func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
			}
			// Completion callbacks bound the window: waiting on the futures
			// would prioritize them and bypass the ordered check.
			slots := make(chan struct{}, window)
			free := core.WithOnDone(func(*core.Future) { <-slots })
			for i := 0; i < n; i++ {
				slots <- struct{}{}
				rt.Submit(tasks[i%8], free)
			}
			for i := 0; i < window; i++ {
				slots <- struct{}{}
			}
			rt.Shutdown()
			for _, v := range chk.Violations() {
				t.Error(v)
			}
			if !s.Quiesced() {
				t.Fatalf("not quiesced: pending=%d effects=%d", s.Pending(), s.PendingEffects())
			}
			per := float64(s.Stats().ConflictChecks) / n
			t.Logf("par %d: %.2f conflict checks per task", par, per)
			if per > 3 {
				t.Errorf("%.2f conflict checks per task, want at most 3: the window is not waiting as a chain", per)
			}
		})
	}
}

// TestYoungPlacedFirstCycleResolves: with two submitters a younger task
// can place an effect before an older one does, so the older task waits on
// the younger (an old→young edge) while the younger parks behind the older
// at another node (the elder rule's young→old edge). Nothing is enabled
// once the blocker that held the older task finishes, and the liveness net
// must resolve the cycle: every task completes and the tree drains.
//
// Placement is done by hand, one effect at a time, so the interleaving of
// the two submissions is exact: young A, old A, old C, young C.
func TestYoungPlacedFirstCycleResolves(t *testing.T) {
	s := New()
	h := &heldSubmit{Scheduler: s, held: make(chan *core.Future, 3)}
	chk := isolcheck.New()
	rt := core.NewRuntime(h, 2, core.WithMonitor(chk))
	defer rt.Shutdown()

	started, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // a failing check must not leave the blocker running
	blocker := rt.ExecuteLater(core.NewTask("blocker", effect.MustParse("reads C"), func(_ *core.Ctx, _ any) (any, error) {
		close(started)
		<-release
		return nil, nil
	}), nil)
	s.Submit(<-h.held)
	<-started

	body := func(_ *core.Ctx, _ any) (any, error) { return nil, nil }
	old := rt.ExecuteLater(core.NewTask("old", effect.MustParse("writes A, writes C"), body), nil)
	young := rt.ExecuteLater(core.NewTask("young", effect.MustParse("writes A, reads C"), body), nil)
	<-h.held
	<-h.held
	effOf := func(f *core.Future, region string) *effInst {
		r := effect.MustParse("reads " + region).At(0).Region
		for _, e := range stateOf(f).effs {
			if e.r.Equal(r) {
				return e
			}
		}
		t.Fatalf("%s has no effect on %s", f.Task().Name, region)
		return nil
	}
	for _, f := range []*core.Future{old, young} {
		newState(f)
		s.liveMu.Lock()
		s.waiting[f] = struct{}{}
		s.liveMu.Unlock()
	}
	place := func(e *effInst) {
		s.root.lock()
		s.insert(s.root, []*effInst{e}, 0, false, nil)
	}
	place(effOf(young, "A"))
	place(effOf(old, "A"))
	place(effOf(old, "C"))
	place(effOf(young, "C"))
	s.ensureLiveness()

	oldC, youngC := effOf(old, "C"), effOf(young, "C")
	nc := s.lockContainingNode(oldC)
	parked := slices.Contains(oldC.waiters, youngC)
	nc.unlock()
	if !parked || young.Status() >= core.Enabled {
		t.Fatalf("young reads C did not park behind old's waiting writes C (young status %v)", young.Status())
	}
	if old.Status() >= core.Enabled {
		t.Fatalf("old enabled while young holds A: status %v", old.Status())
	}

	// Poll rather than wait on the futures: a waiter would prioritize them
	// and resolve the cycle itself, where the liveness net is under test.
	releaseOnce()
	for limit := time.Now().Add(10 * time.Second); !old.IsDone() || !young.IsDone(); {
		if time.Now().After(limit) {
			t.Fatalf("cycle not resolved: pending=%d", s.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.WaitAll([]*core.Future{blocker, old, young}); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	for _, v := range chk.Violations() {
		t.Error(v)
	}
	if !s.Quiesced() {
		t.Fatalf("not quiesced: pending=%d effects=%d", s.Pending(), s.PendingEffects())
	}
}

// TestFinishedFutureDoesNotRetainSuccessor: a finished future keeps its
// scheduler state (SchedState), so nothing in that state may still point
// at the task that queued behind it. Otherwise holding one old future
// keeps every later task of its wait chain reachable. A future sits in a
// cycle with its own state, where a finalizer never runs, so the probe is
// the successor's argument, reachable only through the successor. It
// runs with and without the root RW lock (the tree-rootmutex
// registration).
func TestFinishedFutureDoesNotRetainSuccessor(t *testing.T) {
	type probe struct{ _ *int }
	for _, tc := range []struct {
		name string
		mk   func() *Scheduler
	}{
		{"locked", New},
		{"rootmutex", func() *Scheduler { return NewWithOptions(Options{DisableRootRW: true}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := core.NewRuntime(tc.mk(), 1)
			gate := make(chan struct{})
			head := rt.ExecuteLater(core.NewTask("head", effect.MustParse("writes X"),
				func(*core.Ctx, any) (any, error) { <-gate; return nil, nil }), nil)
			collected := make(chan struct{})
			func() {
				arg := &probe{}
				runtime.SetFinalizer(arg, func(*probe) { close(collected) })
				succ := rt.ExecuteLater(core.NewTask("succ", effect.MustParse("writes X"),
					func(*core.Ctx, any) (any, error) { return nil, nil }), arg)
				if succ.Status() >= core.Enabled {
					t.Error("successor admitted while the head holds X")
				}
			}()
			close(gate)
			rt.Shutdown()
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(head)
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the finished head future keeps its successor reachable")
		})
	}
}
