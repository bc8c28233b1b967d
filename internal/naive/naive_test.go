package naive_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/naive"
	"twe/internal/schedtest"
)

func TestConformance(t *testing.T) {
	schedtest.Run(t, "naive", func() core.Scheduler { return naive.New() })
}

func TestConformanceOrder(t *testing.T) {
	schedtest.RunOrder(t, "naive", func() core.Scheduler { return naive.New() })
}

// TestFIFOOrder: the naive scheduler runs conflicting tasks in enqueue
// order (§3.4.2).
func TestFIFOOrder(t *testing.T) {
	rt := core.NewRuntime(naive.New(), 4)
	defer rt.Shutdown()
	var order []int
	const n = 50
	futs := make([]*core.Future, n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = rt.ExecuteLater(core.NewTask(fmt.Sprintf("t%d", i),
			effect.MustParse("writes R"),
			func(_ *core.Ctx, _ any) (any, error) {
				order = append(order, i)
				return nil, nil
			}), nil)
	}
	for _, f := range futs {
		if _, err := rt.GetValue(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: conflicting tasks ran out of enqueue order %v", i, v, order[:i+1])
		}
	}
}

// TestQueueDrains: the queue must be empty after all work completes.
func TestQueueDrains(t *testing.T) {
	s := naive.New()
	rt := core.NewRuntime(s, 2)
	task := core.NewTask("t", effect.MustParse("writes X"), func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
	for i := 0; i < 20; i++ {
		rt.ExecuteLater(task, nil)
	}
	rt.Shutdown()
	if s.Len() != 0 {
		t.Fatalf("queue not drained: %d entries remain", s.Len())
	}
}

func es(s string) effect.Set { return effect.MustParse(s) }

// TestDisjointRegionsOverlap: tasks with non-interfering effects must run
// concurrently even in the naive scheduler — the global lock serializes
// admission, not execution.
func TestDisjointRegionsOverlap(t *testing.T) {
	rt := core.NewRuntime(naive.New(), 2)
	defer rt.Shutdown()
	aIn, bIn := make(chan struct{}), make(chan struct{})
	fa := rt.ExecuteLater(core.NewTask("a", es("writes R:A"),
		func(_ *core.Ctx, _ any) (any, error) {
			close(aIn)
			<-bIn // deadlocks unless b overlaps with a
			return nil, nil
		}), nil)
	fb := rt.ExecuteLater(core.NewTask("b", es("writes R:B"),
		func(_ *core.Ctx, _ any) (any, error) {
			<-aIn
			close(bIn)
			return nil, nil
		}), nil)
	if err := rt.WaitAll([]*core.Future{fa, fb}); err != nil {
		t.Fatal(err)
	}
}

// TestReadersConcurrent: readers of one region all overlap; a writer
// behind them waits for every reader.
func TestReadersConcurrent(t *testing.T) {
	rt := core.NewRuntime(naive.New(), 8)
	defer rt.Shutdown()
	const readers = 6
	var inside, peak atomic.Int64
	var wrote atomic.Bool
	futs := make([]*core.Future, 0, readers+1)
	gate := make(chan struct{})
	for i := 0; i < readers; i++ {
		futs = append(futs, rt.ExecuteLater(core.NewTask("r", es("reads R"),
			func(_ *core.Ctx, _ any) (any, error) {
				if wrote.Load() {
					t.Error("reader ran after the writer")
				}
				n := inside.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				<-gate
				inside.Add(-1)
				return nil, nil
			}), nil))
	}
	w := rt.ExecuteLater(core.NewTask("w", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) {
			if inside.Load() != 0 {
				t.Error("writer overlapped readers")
			}
			wrote.Store(true)
			return nil, nil
		}), nil)
	// Release the readers only once at least two are inside concurrently
	// (bounded wait so a serializing bug fails the test instead of hanging).
	for deadline := time.Now().Add(5 * time.Second); peak.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := rt.WaitAll(append(futs, w)); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("readers never overlapped (peak %d); scheduler serialized reads", peak.Load())
	}
}

// TestEffectTransferOnBlock: a running task that blocks on a conflicting
// child transfers its effects, so the child is prioritized and enabled
// (§3.1.4) instead of deadlocking behind its blocked parent.
func TestEffectTransferOnBlock(t *testing.T) {
	rt := core.NewRuntime(naive.New(), 2)
	defer rt.Shutdown()
	inner := core.NewTask("inner", es("writes X"),
		func(_ *core.Ctx, _ any) (any, error) { return 9, nil })
	outer := core.NewTask("outer", es("writes X"),
		func(ctx *core.Ctx, _ any) (any, error) {
			innerFut, err := ctx.ExecuteLater(inner, nil)
			if err != nil {
				return nil, err
			}
			return ctx.GetValue(innerFut) // blocks on a task our own effects exclude
		})
	v, err := rt.Execute(outer, nil)
	if err != nil || v.(int) != 9 {
		t.Fatalf("(%v, %v), want (9, nil)", v, err)
	}
}

// TestCancelPreservesFIFO: descheduling a cancelled waiting task from the
// middle of a conflict chain must free its queue slot without disturbing
// the enqueue order of the survivors.
func TestCancelPreservesFIFO(t *testing.T) {
	s := naive.New()
	rt := core.NewRuntime(s, 4)
	running := make(chan struct{})
	release := make(chan struct{})
	head := rt.ExecuteLater(core.NewTask("head", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) {
			close(running)
			<-release
			return nil, nil
		}), nil)
	<-running

	var mu sync.Mutex
	var order []int
	mk := func(i int) *core.Future {
		return rt.ExecuteLater(core.NewTask(fmt.Sprintf("t%d", i), es("writes R"),
			func(_ *core.Ctx, _ any) (any, error) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil, nil
			}), nil)
	}
	f0, f1, f2 := mk(0), mk(1), mk(2)
	if !f1.Cancel(nil) {
		t.Fatal("middle waiter should be cancellable")
	}
	close(release)
	if err := rt.WaitAll([]*core.Future{head, f0, f2}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.GetValue(f1); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("survivor order = %v, want [0 2]", order)
	}
	rt.Shutdown()
	if !s.Quiesced() {
		t.Fatal("queue entries leaked after cancel exit path")
	}
}

// TestPanicReleasesEffects: a panicking body must release its effects so a
// conflicting successor runs, and must leave the queue clean.
func TestPanicReleasesEffects(t *testing.T) {
	s := naive.New()
	rt := core.NewRuntime(s, 2)
	bomb := rt.ExecuteLater(core.NewTask("bomb", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) { panic("naive bomb") }), nil)
	if _, err := rt.GetValue(bomb); err == nil {
		t.Fatal("panic not surfaced as task failure")
	}
	after := rt.ExecuteLater(core.NewTask("after", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) { return "ok", nil }), nil)
	if v, err := rt.GetValue(after); err != nil || v != "ok" {
		t.Fatalf("successor after panic = (%v, %v)", v, err)
	}
	rt.Shutdown()
	if !s.Quiesced() {
		t.Fatal("queue entries leaked after panic exit path")
	}
}

// TestDeadlineExitPath: a deadline firing on a waiting task deschedules it
// without disturbing the rest of the queue.
func TestDeadlineExitPath(t *testing.T) {
	s := naive.New()
	rt := core.NewRuntime(s, 2)
	running := make(chan struct{})
	release := make(chan struct{})
	head := rt.ExecuteLater(core.NewTask("head", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) {
			close(running)
			<-release
			return nil, nil
		}), nil)
	<-running
	late := rt.Submit(core.NewTask("late", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), core.WithDeadline(5*time.Millisecond))
	if _, err := rt.GetValue(late); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	close(release)
	if _, err := rt.GetValue(head); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if !s.Quiesced() {
		t.Fatal("queue entries leaked after deadline exit path")
	}
}

// TestPendingGauge: Pending counts waiting (not running) tasks.
func TestPendingGauge(t *testing.T) {
	s := naive.New()
	rt := core.NewRuntime(s, 2)
	running := make(chan struct{})
	release := make(chan struct{})
	rt.ExecuteLater(core.NewTask("head", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) {
			close(running)
			<-release
			return nil, nil
		}), nil)
	<-running
	waiter := rt.ExecuteLater(core.NewTask("w", es("writes R"),
		func(_ *core.Ctx, _ any) (any, error) { return nil, nil }), nil)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	close(release)
	if _, err := rt.GetValue(waiter); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
}
