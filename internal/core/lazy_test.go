package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"twe/internal/compound"
	"twe/internal/core"
	"twe/internal/naive"
	"twe/internal/tree"
)

// bothScheds runs fn against an unmonitored runtime of each bundled
// scheduler. A panic that escapes a body into the pool (a double close of
// a done channel would be one) fails the test.
func bothScheds(t *testing.T, par int, fn func(t *testing.T, rt *core.Runtime)) {
	for _, tc := range []struct {
		name string
		mk   func() core.Scheduler
	}{
		{"naive", func() core.Scheduler { return naive.New() }},
		{"tree", func() core.Scheduler { return tree.New() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := core.NewRuntime(tc.mk(), par)
			rt.Pool().SetPanicHandler(func(_ int, r any, _ []byte) {
				t.Errorf("runtime panic reached the pool: %v", r)
			})
			defer rt.Shutdown()
			fn(t, rt)
		})
	}
}

var noop = func(_ *core.Ctx, _ any) (any, error) { return nil, nil }

// TestLazyCoverUncoveredSpawnRejected: the covering effect is built on
// first use, so a body whose very first task operation is an uncovered
// spawn must still be refused, with the message an eagerly built covering
// effect produced.
func TestLazyCoverUncoveredSpawnRejected(t *testing.T) {
	bothScheds(t, 2, func(t *testing.T, rt *core.Runtime) {
		child := core.NewTask("child", es("writes B"), noop)
		parent := core.NewTask("parent", es("writes A"), func(ctx *core.Ctx, _ any) (any, error) {
			_, err := ctx.Spawn(child, nil)
			return nil, err
		})
		_, err := rt.Run(parent, nil)
		var ue *core.UncoveredSpawnError
		if !errors.As(err, &ue) {
			t.Fatalf("uncovered spawn returned %v, want *UncoveredSpawnError", err)
		}
		want := fmt.Sprintf("core: task %q cannot spawn %q: effects [%v] not covered by current covering effect %s",
			"parent", "child", es("writes B"), compound.NewBase(es("writes A")).String())
		if err.Error() != want {
			t.Fatalf("error text %q, want %q", err.Error(), want)
		}
	})
}

// TestLazyCoverJoinRestores: CoveringContains answers before any spawn,
// a spawn takes its effects out of the lazily built covering effect (so a
// second spawn of the same effects is refused), and Join puts them back.
func TestLazyCoverJoinRestores(t *testing.T) {
	bothScheds(t, 2, func(t *testing.T, rt *core.Runtime) {
		child := core.NewTask("child", es("writes A:[1]"), noop)
		parent := core.NewTask("parent", es("writes A:*"), func(ctx *core.Ctx, _ any) (any, error) {
			if !ctx.CoveringContains(es("writes A:[1]")) {
				return nil, fmt.Errorf("declared effect not covered before any spawn")
			}
			sf, err := ctx.Spawn(child, nil)
			if err != nil {
				return nil, err
			}
			if ctx.CoveringContains(es("writes A:[1]")) {
				return nil, fmt.Errorf("spawned effect still covered")
			}
			if _, err := ctx.Spawn(child, nil); err == nil {
				return nil, fmt.Errorf("second spawn of a transferred effect admitted")
			}
			if _, err := ctx.Join(sf); err != nil {
				return nil, err
			}
			if !ctx.CoveringContains(es("writes A:[1]")) {
				return nil, fmt.Errorf("join did not restore coverage")
			}
			sf, err = ctx.Spawn(child, nil)
			if err != nil {
				return nil, fmt.Errorf("spawn after join: %v", err)
			}
			_, err = ctx.Join(sf)
			return nil, err
		})
		if _, err := rt.Run(parent, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// waitAll calls GetValue on f from n goroutines and returns their errors
// once all of them returned, or fails the test if any is still blocked
// after a generous bound.
func waitAll(t *testing.T, rt *core.Runtime, f *core.Future, n int, want any) []error {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := rt.GetValue(f)
			if err == nil && v != want {
				err = fmt.Errorf("value %v, want %v", v, want)
			}
			errs[i] = err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("GetValue waiters still blocked after 10s")
	}
	return errs
}

// TestLazyDoneChannel covers the lazily created done channel on every
// way a future can finish relative to its waiters: finished before any
// waiter arrives, finishing while waiters arrive, finishing after they
// blocked, cancelled, deadline-expired, and run inline by a waiting task.
// Nobody may hang, and no close may panic.
func TestLazyDoneChannel(t *testing.T) {
	bothScheds(t, 2, func(t *testing.T, rt *core.Runtime) {
		t.Run("before", func(t *testing.T) {
			fin := make(chan struct{})
			f := rt.Submit(core.NewTask("t", es("writes B:[1]"), func(_ *core.Ctx, _ any) (any, error) { return 7, nil }),
				core.WithOnDone(func(*core.Future) { close(fin) }))
			<-fin
			for _, err := range waitAll(t, rt, f, 3, 7) {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Run("during", func(t *testing.T) {
			task := core.NewTask("t", es("writes B:[2]"), func(_ *core.Ctx, _ any) (any, error) { return 8, nil })
			for i := 0; i < 200; i++ {
				f := rt.ExecuteLater(task, nil)
				for _, err := range waitAll(t, rt, f, 2, 8) {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		t.Run("after", func(t *testing.T) {
			gate := make(chan struct{})
			f := rt.ExecuteLater(core.NewTask("t", es("writes B:[3]"), func(_ *core.Ctx, _ any) (any, error) {
				<-gate
				return 9, nil
			}), nil)
			go func() { time.Sleep(5 * time.Millisecond); close(gate) }()
			for _, err := range waitAll(t, rt, f, 3, 9) {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		// A gated holder keeps the next two tasks waiting for its effect.
		hold := func() (release func()) {
			running, gate := make(chan struct{}), make(chan struct{})
			h := rt.ExecuteLater(gateTask("hold", running, gate), nil)
			<-running
			return func() {
				close(gate)
				if _, err := rt.GetValue(h); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Run("cancel", func(t *testing.T) {
			release := hold()
			f := rt.ExecuteLater(core.NewTask("t", es("writes X"), noop), nil)
			go func() { time.Sleep(5 * time.Millisecond); f.Cancel(nil) }()
			for _, err := range waitAll(t, rt, f, 3, nil) {
				if !errors.Is(err, core.ErrCancelled) {
					t.Fatalf("waiter got %v, want ErrCancelled", err)
				}
			}
			release()
		})
		t.Run("deadline", func(t *testing.T) {
			release := hold()
			f := rt.Submit(core.NewTask("t", es("writes X"), noop), core.WithDeadline(5*time.Millisecond))
			for _, err := range waitAll(t, rt, f, 3, nil) {
				if !errors.Is(err, core.ErrDeadlineExceeded) {
					t.Fatalf("waiter got %v, want ErrDeadlineExceeded", err)
				}
			}
			release()
		})
	})
	// Inline run: on a one-worker pool the parent occupies the worker, so
	// the child it waits on is enabled but unstarted and runs inline on
	// the parent's goroutine; external waiters must still wake.
	bothScheds(t, 1, func(t *testing.T, rt *core.Runtime) {
		child := core.NewTask("child", es("writes C:[1]"), func(_ *core.Ctx, _ any) (any, error) { return 5, nil })
		var cf *core.Future
		started := make(chan struct{})
		parent := core.NewTask("parent", es("writes C:[2]"), func(ctx *core.Ctx, _ any) (any, error) {
			f, err := ctx.ExecuteLater(child, nil)
			if err != nil {
				return nil, err
			}
			cf = f
			close(started)
			time.Sleep(2 * time.Millisecond) // let the external waiters block
			return ctx.GetValue(f)
		})
		pf := rt.ExecuteLater(parent, nil)
		<-started
		for _, err := range waitAll(t, rt, cf, 2, 5) {
			if err != nil {
				t.Fatal(err)
			}
		}
		if v, err := rt.GetValue(pf); err != nil || v != 5 {
			t.Fatalf("parent = %v, %v; want 5", v, err)
		}
	})
}
