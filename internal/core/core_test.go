package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/naive"
	"twe/internal/rpl"
	"twe/internal/tree"
)

func es(s string) effect.Set { return effect.MustParse(s) }

func newRT(t *testing.T) *core.Runtime {
	t.Helper()
	return core.NewRuntime(tree.New(), 4)
}

func TestStatusString(t *testing.T) {
	cases := map[core.Status]string{
		core.Waiting:     "WAITING",
		core.Prioritized: "PRIORITIZED",
		core.Enabled:     "ENABLED",
		core.Done:        "DONE",
		core.Status(99):  "Status(99)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestFutureAccessors(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	task := core.NewTask("acc", es("reads X"), func(_ *core.Ctx, _ any) (any, error) { return 5, nil })
	f := rt.ExecuteLater(task, nil)
	if f.Task() != task {
		t.Error("Task() wrong")
	}
	if !f.Effects().Equal(es("reads X")) {
		t.Error("Effects() wrong")
	}
	if f.Seq() == 0 {
		t.Error("Seq() should be assigned")
	}
	if _, err := rt.GetValue(f); err != nil {
		t.Fatal(err)
	}
	if !f.IsDone() || f.Status() != core.Done {
		t.Error("future should be done")
	}
	// GetValue after done returns immediately with the same value.
	v, err := rt.GetValue(f)
	if err != nil || v.(int) != 5 {
		t.Fatalf("repeat GetValue = (%v, %v)", v, err)
	}
}

func TestGetValueFromMultipleWaiters(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	gate := make(chan struct{})
	task := core.NewTask("slow", es("pure"), func(_ *core.Ctx, _ any) (any, error) {
		<-gate
		return "v", nil
	})
	f := rt.ExecuteLater(task, nil)
	results := make(chan any, 3)
	for i := 0; i < 3; i++ {
		go func() {
			v, _ := rt.GetValue(f)
			results <- v
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	for i := 0; i < 3; i++ {
		if v := <-results; v != "v" {
			t.Fatalf("waiter got %v", v)
		}
	}
}

func TestRuntimeExecuteExternal(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	task := core.NewTask("x", es("writes R"), func(_ *core.Ctx, arg any) (any, error) {
		return arg.(int) + 1, nil
	})
	v, err := rt.Execute(task, 41)
	if err != nil || v.(int) != 42 {
		t.Fatalf("Execute = (%v, %v)", v, err)
	}
}

func TestErrorTypes(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()

	// Self-wait. The body may start before ExecuteLater returns, so it
	// receives its own future over a channel.
	selfc := make(chan *core.Future, 1)
	selfTask := core.NewTask("self", es("pure"), func(ctx *core.Ctx, _ any) (any, error) {
		return ctx.GetValue(<-selfc)
	})
	self := rt.ExecuteLater(selfTask, nil)
	selfc <- self
	if _, err := rt.GetValue(self); !errors.Is(err, core.ErrSelfWait) {
		t.Fatalf("self wait: %v", err)
	}

	// UncoveredSpawnError formatting.
	use := &core.UncoveredSpawnError{Parent: "p", Child: "c", ChildEff: es("writes X"), Covering: "{...}"}
	if use.Error() == "" {
		t.Error("empty error string")
	}
}

func TestChildErrorPropagatesThroughImplicitJoin(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	child := core.NewTask("bad", es("writes C"), func(_ *core.Ctx, _ any) (any, error) {
		return nil, fmt.Errorf("child exploded")
	})
	parent := core.NewTask("p", es("writes C"), func(ctx *core.Ctx, _ any) (any, error) {
		_, err := ctx.Spawn(child, nil)
		return "ok", err // not joined: implicit join must surface the error
	})
	_, err := rt.Run(parent, nil)
	if err == nil || err.Error() != "child exploded" {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedSpawnTree(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	depthEff := func(path []int) effect.Set {
		elems := []rpl.Elem{rpl.N("T")}
		for _, p := range path {
			elems = append(elems, rpl.Idx(p))
		}
		elems = append(elems, rpl.Any)
		return effect.NewSet(effect.WriteEff(rpl.New(elems...)))
	}
	leaves := 0 // protected by isolation of the leaf regions? no: count under join order
	var build func(path []int, depth int) *core.Task
	build = func(path []int, depth int) *core.Task {
		return core.NewTask(fmt.Sprintf("n%v", path), depthEff(path),
			func(ctx *core.Ctx, _ any) (any, error) {
				if depth == 0 {
					return 1, nil
				}
				var sfs []*core.SpawnedFuture
				for i := 0; i < 2; i++ {
					sf, err := ctx.Spawn(build(append(append([]int(nil), path...), i), depth-1), nil)
					if err != nil {
						return nil, err
					}
					sfs = append(sfs, sf)
				}
				total := 0
				for _, sf := range sfs {
					v, err := ctx.Join(sf)
					if err != nil {
						return nil, err
					}
					total += v.(int)
				}
				return total, nil
			})
	}
	v, err := rt.Run(build(nil, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 16 {
		t.Fatalf("leaf count = %v, want 16", v)
	}
	_ = leaves
}

func TestConflictsIgnoringTransfer(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	a := rt.ExecuteLater(core.NewTask("a", es("writes R"), func(_ *core.Ctx, _ any) (any, error) {
		time.Sleep(time.Millisecond)
		return nil, nil
	}), nil)
	b := rt.ExecuteLater(core.NewTask("b", es("writes S"), func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), nil)
	if core.ConflictsIgnoringTransfer(a, b) {
		t.Error("disjoint effects must not conflict")
	}
	if core.ConflictsIgnoringTransfer(a, a) {
		t.Error("a task never conflicts with itself")
	}
	c := rt.ExecuteLater(core.NewTask("c", es("writes R"), func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), nil)
	if !core.ConflictsIgnoringTransfer(a, c) {
		t.Error("same-region writers must conflict")
	}
	rt.GetValue(a)
	rt.GetValue(b)
	rt.GetValue(c)
}

func TestBlockedOnChain(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	release := make(chan struct{})
	inner := core.NewTask("inner", es("writes R3"), func(_ *core.Ctx, _ any) (any, error) {
		<-release
		return nil, nil
	})
	var innerFut, midFut *core.Future
	started := make(chan struct{}, 2)
	mid := core.NewTask("mid", es("writes R2"), func(ctx *core.Ctx, _ any) (any, error) {
		started <- struct{}{}
		return ctx.GetValue(innerFut)
	})
	outer := core.NewTask("outer", es("writes R1"), func(ctx *core.Ctx, _ any) (any, error) {
		started <- struct{}{}
		return ctx.GetValue(midFut)
	})
	innerFut = rt.ExecuteLater(inner, nil)
	midFut = rt.ExecuteLater(mid, nil)
	outerFut := rt.ExecuteLater(outer, nil)
	<-started
	<-started
	deadline := time.After(5 * time.Second)
	for !outerFut.BlockedOn(innerFut) {
		select {
		case <-deadline:
			t.Fatal("transitive BlockedOn never became true")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	if _, err := rt.GetValue(outerFut); err != nil {
		t.Fatal(err)
	}
	if outerFut.Blocker() != nil {
		t.Error("blocker not cleared after completion")
	}
}

func TestSpawnAncestry(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	var childFut *core.Future
	parent := core.NewTask("p", es("writes P"), func(ctx *core.Ctx, _ any) (any, error) {
		sf, err := ctx.Spawn(core.NewTask("c", es("writes P"), func(_ *core.Ctx, _ any) (any, error) {
			return nil, nil
		}), nil)
		if err != nil {
			return nil, err
		}
		childFut = sf.Future()
		if childFut.SpawnParent() != ctx.Future() {
			return nil, fmt.Errorf("SpawnParent wrong")
		}
		if !ctx.Future().SpawnAncestorOf(childFut) {
			return nil, fmt.Errorf("SpawnAncestorOf wrong")
		}
		if childFut.SpawnAncestorOf(ctx.Future()) {
			return nil, fmt.Errorf("ancestry inverted")
		}
		_, err = ctx.Join(sf)
		return nil, err
	})
	if _, err := rt.Run(parent, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoveringContains(t *testing.T) {
	rt := newRT(t)
	defer rt.Shutdown()
	task := core.NewTask("t", es("writes A, B"), func(ctx *core.Ctx, _ any) (any, error) {
		if !ctx.CoveringContains(es("writes A")) {
			return nil, fmt.Errorf("A should be covered initially")
		}
		sf, err := ctx.Spawn(core.NewTask("c", es("writes A"),
			func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), nil)
		if err != nil {
			return nil, err
		}
		if ctx.CoveringContains(es("writes A")) {
			return nil, fmt.Errorf("A transferred away, must not be covered")
		}
		if !ctx.CoveringContains(es("writes B")) {
			return nil, fmt.Errorf("B must remain covered")
		}
		if _, err := ctx.Join(sf); err != nil {
			return nil, err
		}
		if !ctx.CoveringContains(es("writes A")) {
			return nil, fmt.Errorf("A must return after join")
		}
		return nil, nil
	})
	if _, err := rt.Run(task, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveAndTreeInterchangeable(t *testing.T) {
	for _, mk := range []func() core.Scheduler{
		func() core.Scheduler { return naive.New() },
		func() core.Scheduler { return tree.New() },
	} {
		rt := core.NewRuntime(mk(), 2)
		task := core.NewTask("t", es("writes W"), func(_ *core.Ctx, arg any) (any, error) {
			return arg, nil
		})
		v, err := rt.Run(task, "hello")
		if err != nil || v != "hello" {
			t.Fatalf("(%v, %v)", v, err)
		}
		rt.Shutdown()
	}
}
