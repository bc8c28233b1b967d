package pool

import (
	"sync/atomic"
	"testing"
	"time"

	"twe/internal/obs"
)

// newTracedPool returns a par-worker pool with a tracer attached (for the
// park/wake counters) whose workers have all started and parked.
func newTracedPool(t *testing.T, par int) (*Pool, *obs.Metrics) {
	t.Helper()
	p := New(par)
	tr := obs.New()
	p.SetTracer(tr)
	done := make(chan struct{})
	p.Submit(func() { close(done) })
	<-done
	waitFor(t, "all workers parked", func() bool { return p.parked() == par })
	return p, tr.Metrics()
}

// parked reports how many permanent workers are parked without a token.
func (p *Pool) parked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sleepers
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestSubmitWakesOneWorker: one unit of work on an idle pool wakes one
// parked worker, not the whole pool, and an idle pool stays asleep.
func TestSubmitWakesOneWorker(t *testing.T) {
	const par, rounds = 4, 100
	p, m := newTracedPool(t, par)
	w0 := m.PoolWakeups.Load()
	for i := 0; i < rounds; i++ {
		done := make(chan struct{})
		p.Submit(func() { close(done) })
		<-done
		waitFor(t, "pool idle again", func() bool { return p.parked() == par })
	}
	if d := m.PoolWakeups.Load() - w0; d != rounds {
		t.Fatalf("%d single-unit Submits to an idle pool woke parked workers %d times, want %d", rounds, d, rounds)
	}
	p.Shutdown()
}

// TestBatchFansOut: a batch of n ≥ par units on an idle pool wakes
// enough workers that units run concurrently — the fan-out a batched
// scheduler admission relies on. Each unit waits (up to a shared
// deadline) until a second unit is running alongside it.
func TestBatchFansOut(t *testing.T) {
	const par = 4
	p, _ := newTracedPool(t, par)
	var cur, peak atomic.Int64
	deadline := time.Now().Add(5 * time.Second)
	fn := func(_, _ int) {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		for peak.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		cur.Add(-1)
	}
	units := make([]*workerUnit, 2*par)
	for i := range units {
		units[i] = &workerUnit{i: i, fn: fn}
	}
	SubmitAll(p, units)
	p.Quiesce()
	if peak.Load() < 2 {
		t.Fatalf("batch of %d units on %d idle workers never ran two at once", 2*par, par)
	}
	p.Shutdown()
}

// TestBlockHandsTokenToParkedSibling: when a task blocks while work is
// queued and a sibling is parked, the freed token goes to that sibling
// — no compensation worker is spawned.
//
// Set-up (par 2): worker X runs A, worker Y runs B, which blocks; C
// then takes the free token on a compensation worker. B's wait ends but
// both tokens are held, so B waits to re-acquire; A finishes, X parks
// and its token goes to B. Now X is parked, both tokens are held (B, C)
// and D is queued. B blocks again: its token must go to X, which runs D.
func TestBlockHandsTokenToParkedSibling(t *testing.T) {
	const par = 2
	p, m := newTracedPool(t, par)
	var (
		aGo, aRunning     = make(chan struct{}), make(chan struct{})
		b1, bBlocked      = make(chan struct{}), make(chan struct{})
		bGo, bResumed, b2 = make(chan struct{}), make(chan struct{}), make(chan struct{})
		cGo, cRunning     = make(chan struct{}), make(chan struct{})
		dRan              = make(chan struct{})
	)
	p.Submit(func() { close(aRunning); <-aGo })
	<-aRunning // B must not run first: its Block would spawn a worker for A
	p.Submit(func() {
		p.Block(func() { close(bBlocked); <-b1 })
		close(bResumed)
		<-bGo
		p.Block(func() { <-b2 })
	})
	<-bBlocked
	p.Submit(func() { close(cRunning); <-cGo }) // runs on a compensation worker
	<-cRunning
	close(b1)
	waitFor(t, "B waiting to re-acquire", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.reacq == 1
	})
	close(aGo)
	<-bResumed
	waitFor(t, "A's worker parked", func() bool { return p.parked() == 1 })

	started, woken := m.WorkersStarted.Load(), m.PoolWakeups.Load()
	p.Submit(func() { close(dRan) })
	if _, q, _ := p.Stats(); q != 1 {
		t.Fatalf("queued = %d with both tokens held, want 1", q)
	}
	close(bGo)
	<-dRan
	if d := m.WorkersStarted.Load() - started; d != 0 {
		t.Errorf("Block spawned %d compensation worker(s) while a sibling was parked", d)
	}
	if d := m.PoolWakeups.Load() - woken; d != 1 {
		t.Errorf("parked sibling woken %d times, want 1", d)
	}
	close(b2)
	close(cGo)
	p.Shutdown()
}

// TestQuiesceShutdownUnderChainedLoad: Quiesce and Shutdown return while
// tasks keep submitting successors (some of them blocking), i.e. the
// idle condition is signalled when pending reaches zero and not lost
// among the per-unit wake-ups.
func TestQuiesceShutdownUnderChainedLoad(t *testing.T) {
	const par, chains, depth = 4, 16, 200
	p := New(par)
	var ran atomic.Int64
	var chain func(depth int)
	chain = func(depth int) {
		ran.Add(1)
		if depth == 0 {
			return
		}
		if depth%7 == 0 {
			next := make(chan struct{})
			p.Submit(func() { close(next); chain(depth - 1) })
			p.Block(func() { <-next })
			return
		}
		p.Submit(func() { chain(depth - 1) })
	}
	bounded := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			r, q, pd := p.Stats()
			t.Fatalf("%s hung: running=%d queued=%d pending=%d", what, r, q, pd)
		}
	}
	for round := 1; round <= 2; round++ {
		for i := 0; i < chains; i++ {
			p.Submit(func() { chain(depth) })
		}
		if round == 1 {
			bounded("Quiesce", p.Quiesce)
		} else {
			bounded("Shutdown", p.Shutdown)
		}
		if want := int64(round * chains * (depth + 1)); ran.Load() != want {
			t.Fatalf("round %d: ran %d units, want %d", round, ran.Load(), want)
		}
	}
}
