package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealPathDrainsStuckRing: with one worker stuck on a long task, the
// work round-robined onto its ring must be stolen and completed by its
// siblings, and the steal counter must record it.
func TestStealPathDrainsStuckRing(t *testing.T) {
	p := New(2)
	stuck := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-stuck })
	<-started
	var n atomic.Int64
	const units = 64
	for i := 0; i < units; i++ {
		p.Submit(func() { n.Add(1) })
	}
	// Half the units landed on the stuck worker's ring; the other worker
	// (and nobody else — par is 2 and one token is occupied) must steal
	// them. Wait without releasing the stuck task.
	deadline := time.After(10 * time.Second)
	for n.Load() < units {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d units ran while one worker was stuck", n.Load(), units)
		case <-time.After(time.Millisecond):
		}
	}
	if p.Steals() == 0 {
		t.Fatal("stuck worker's ring was drained without any recorded steal")
	}
	close(stuck)
	p.Quiesce()
}

// TestSingleWorkerFIFO: with parallelism 1 every unit lands on the single
// ring and the owner drains it in order, so completion order must equal
// submission order (the per-ring FIFO guarantee stealing must preserve).
func TestSingleWorkerFIFO(t *testing.T) {
	p := New(1)
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-gate })
	<-started
	var mu sync.Mutex
	var order []int
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	close(gate)
	p.Quiesce()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: single ring lost FIFO", i, v)
		}
	}
}

// workerUnit is a test Runner that records the worker it ran on.
type workerUnit struct {
	i  int
	fn func(worker, i int)
}

func (u *workerUnit) RunOn(worker int) { u.fn(worker, u.i) }

// TestSubmitAllAffinity: a batch flush spreads units across the worker
// rings and every unit reports a real worker id; with all workers free and
// units on every ring, the batch completes without requiring the whole
// fan-out to funnel through one queue.
func TestSubmitAllAffinity(t *testing.T) {
	const par = 4
	p := New(par)
	const n = 256
	seen := make([]atomic.Int32, n)
	var workers sync.Map
	var wg sync.WaitGroup
	wg.Add(n)
	fn := func(worker, i int) {
		defer wg.Done()
		seen[i].Add(1)
		if worker <= 0 {
			t.Errorf("unit %d got worker id %d", i, worker)
		}
		workers.Store(worker, true)
		time.Sleep(200 * time.Microsecond) // let every worker engage
	}
	units := make([]*workerUnit, n)
	for i := range units {
		units[i] = &workerUnit{i: i, fn: fn}
	}
	SubmitAll(p, units)
	wg.Wait()
	p.Quiesce()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("unit %d ran %d times", i, got)
		}
	}
	ids := 0
	workers.Range(func(_, _ any) bool { ids++; return true })
	if ids < 2 {
		t.Errorf("batch of %d units ran on %d worker(s); expected fan-out across rings", n, ids)
	}
}

// TestShutdownDrainsNonEmptyDeques: Shutdown must run everything still
// sitting in the rings (including overflow spill past the ring capacity)
// before closing, and the permanent workers must retire.
func TestShutdownDrainsNonEmptyDeques(t *testing.T) {
	p := New(3)
	var n atomic.Int64
	const units = 4 * ringCap // force overflow spill on every ring
	for i := 0; i < units; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Shutdown()
	if n.Load() != units {
		t.Fatalf("Shutdown lost work: ran %d of %d", n.Load(), units)
	}
	if r, q, pd := p.Stats(); r != 0 || q != 0 || pd != 0 {
		t.Fatalf("accounting after Shutdown: running=%d queued=%d pending=%d", r, q, pd)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Shutdown should panic")
		}
	}()
	p.Submit(func() {})
}

// TestRingOverflowSpill drives a single ring past its capacity while its
// owner is stuck; the spill must preserve the work and the steal/overflow
// paths must drain all of it.
func TestRingOverflowSpill(t *testing.T) {
	p := New(1)
	stuck := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-stuck })
	<-started
	var n atomic.Int64
	const units = ringCap + 100
	for i := 0; i < units; i++ {
		p.Submit(func() { n.Add(1) })
	}
	if _, q, _ := p.Stats(); q != units {
		t.Fatalf("queued = %d, want %d (ring + overflow)", q, units)
	}
	close(stuck)
	p.Quiesce()
	if n.Load() != units {
		t.Fatalf("ran %d of %d after overflow spill", n.Load(), units)
	}
}

// TestStealsUnderContention: many producers and conflicting-free work keep
// all workers busy; the pool must complete everything with the bound held
// and (with multiple rings) at least occasionally steal.
func TestStealsUnderContention(t *testing.T) {
	const par = 4
	p := New(par)
	var cur, max, n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Submit(func() {
					c := cur.Add(1)
					for {
						m := max.Load()
						if c <= m || max.CompareAndSwap(m, c) {
							break
						}
					}
					n.Add(1)
					cur.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	p.Quiesce()
	if n.Load() != 1600 {
		t.Fatalf("ran %d of 1600", n.Load())
	}
	if max.Load() > par {
		t.Fatalf("parallelism bound broken: %d > %d", max.Load(), par)
	}
}
