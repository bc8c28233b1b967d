// Package pool provides the low-level task execution substrate that the
// TWE schedulers hand enabled tasks to — the role Java's ForkJoinPool plays
// in TWEJava (§3.4.2, §5.5). It bounds the number of concurrently *running*
// tasks while allowing any number of logically in-flight tasks:
//
//   - Submit never blocks; work queues when all parallelism tokens are
//     taken and starts as tokens free up.
//   - Block lets a running task wait for a condition while releasing its
//     token, so tasks blocked in getValue/join cannot starve the pool
//     (ForkJoinPool's compensation-thread behaviour).
//
// Execution uses a work-stealing structure (DESIGN.md §17): a fixed set of
// `par` long-lived workers, each owning a bounded lock-free ring of queued
// work. Submissions are distributed round-robin across the rings; a worker
// drains its own ring first, then the shared overflow list, then performs a
// randomized steal sweep over its siblings' rings. A task that calls Block
// parks its worker goroutine; if queued work remains and every other worker
// is busy, a transient compensation worker is spawned (and retires as soon
// as the rings run dry or a blocked worker wants its token back), so
// blocked tasks never strand queued work while the parallelism bound keeps
// holding.
//
// Every wait in the pool has its own condition and every wake-up a reason
// (DESIGN.md §17, "Work-stealing pool"): a parked worker sleeps on work
// and is woken only when a unit needs it, with a run token already in
// hand; a Block re-acquirer sleeps on token and is woken when one frees;
// Quiesce sleeps on idle and is woken when pending reaches zero or the
// pool closes.
package pool

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"twe/internal/obs"
)

// Pool is a bounded-parallelism executor. The zero value is not usable;
// create with New.
type Pool struct {
	par    int
	deques []*ring // one bounded ring per permanent worker slot
	rr     atomic.Uint64
	steals atomic.Uint64

	mu         sync.Mutex
	work       sync.Cond // parked permanent workers wait here for a handoff
	token      sync.Cond // Block callers wait here to re-acquire a token
	idle       sync.Cond // Quiesce waits here for pending == 0
	overflow   []Runner  // spill list for full rings; guarded by mu
	running    int       // tasks currently executing (holding a token)
	active     int       // worker goroutines holding a token (≤ par)
	pending    int       // submitted but not finished (for Quiesce)
	sleepers   int       // parked workers not yet handed a token
	handoffs   int       // tokens handed to parked workers, not yet claimed
	reacq      int       // Block callers waiting to re-acquire a token
	started    bool
	closed     bool
	nextWorker int // compensation-worker id allocator (> par)
	tracer     *obs.Tracer
	onPanic    func(worker int, recovered any, stack []byte)
}

// New returns a pool with the given parallelism. If par <= 0 it defaults to
// runtime.GOMAXPROCS(0).
func New(par int) *Pool {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	p := &Pool{par: par, deques: make([]*ring, par), nextWorker: par}
	for i := range p.deques {
		p.deques[i] = newRing()
	}
	p.work.L = &p.mu
	p.token.L = &p.mu
	p.idle.L = &p.mu
	return p
}

// Parallelism returns the pool's token count.
func (p *Pool) Parallelism() int { return p.par }

// Steals returns the number of tasks dequeued from a ring by a worker other
// than its owner (including compensation workers, which own no ring).
func (p *Pool) Steals() uint64 { return p.steals.Load() }

// SetTracer installs the observability tracer whose pool-utilization
// gauge and worker counters this pool updates. Must be called before the
// first Submit (core.NewRuntime does so when WithTracer is given).
func (p *Pool) SetTracer(t *obs.Tracer) {
	p.mu.Lock()
	p.tracer = t
	p.mu.Unlock()
}

// Runner is one unit of submitted work. The TWE runtime's futures
// implement it, so enabling a task queues the future itself: no closure
// per enable or per batch. worker is the 1-based id of the pool worker
// goroutine running the unit (permanent workers keep stable ids 1..par,
// compensation workers get fresh higher ids); the runtime uses it to
// attribute task run spans to worker rows in the Chrome trace.
type Runner interface {
	RunOn(worker int)
}

// Func adapts a plain function to Runner. A func value is pointer-shaped,
// so the conversion to the interface allocates nothing.
type Func func()

// RunOn calls f.
func (f Func) RunOn(int) { f() }

// Submit enqueues f for execution. It never blocks and is safe to call
// from inside pool tasks (including while holding unrelated locks).
func (p *Pool) Submit(f func()) {
	p.SubmitRunner(Func(f))
}

// SubmitRunner is Submit for a Runner: the unit is queued as is.
func (p *Pool) SubmitRunner(r Runner) {
	p.reserve(1)
	p.push(r)
	p.wake(1)
}

// SubmitAll enqueues every unit of rs under a single accounting pass. This
// is the flush a batched scheduler admission uses: enabling N tasks pays
// one wakeup pass instead of N. Units are spread round-robin across the
// worker rings and up to len(rs) parked workers are woken, so a batch fans
// out. Semantically equivalent to SubmitRunner of each unit in order. It is
// generic so a caller's []*T queues without building a []Runner.
func SubmitAll[R Runner](p *Pool, rs []R) {
	if len(rs) == 0 {
		return
	}
	p.reserve(len(rs))
	for _, r := range rs {
		p.push(r)
	}
	p.wake(len(rs))
}

// reserve counts n units about to be pushed as pending, starting the
// workers on first use.
func (p *Pool) reserve(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("pool: Submit after Shutdown")
	}
	p.startLocked()
	p.pending += n
}

// startLocked lazily launches the permanent workers on first use.
func (p *Pool) startLocked() {
	if p.started {
		return
	}
	p.started = true
	if p.tracer != nil {
		p.tracer.Metrics().WorkersStarted.Add(uint64(p.par))
	}
	p.active = p.par
	for slot := 0; slot < p.par; slot++ {
		go p.workerLoop(slot)
	}
}

// push places r on a ring (round-robin), spilling to the overflow list
// when the ring is full.
func (p *Pool) push(r Runner) {
	slot := int(p.rr.Add(1)) % len(p.deques)
	if p.deques[slot].push(r) {
		return
	}
	p.mu.Lock()
	p.overflow = append(p.overflow, r)
	p.mu.Unlock()
}

// wake gets n just-pushed units picked up. Each free token goes to one
// parked worker, so n units wake at most min(n, free tokens, sleepers)
// of them; with tokens free and nobody parked (workers are blocked in
// Block) one compensation worker is spawned instead. With no token free
// nobody is woken: every token holder re-checks the queues under mu
// before it parks or retires, and the push is ordered before this
// section, so it will see the units.
func (p *Pool) wake(n int) {
	p.mu.Lock()
	n = min(n, p.par-p.active)
	for ; n > 0 && p.sleepers > 0; n-- {
		p.handoffLocked()
	}
	if n > 0 && p.queuedLocked() > 0 {
		p.spawnCompLocked()
	}
	p.mu.Unlock()
}

// handoffLocked wakes one parked worker and hands it a token: active is
// counted on its behalf here, so a woken worker never waits for one.
// Caller holds mu and has checked sleepers > 0 and active < par.
func (p *Pool) handoffLocked() {
	p.sleepers--
	p.handoffs++
	p.active++
	p.work.Signal()
}

// releaseLocked gives up the caller's token. A Block caller waiting to
// re-acquire one is the only goroutine that waits for a token, so it is
// the only one told.
func (p *Pool) releaseLocked() {
	p.active--
	if p.reacq > 0 {
		p.token.Signal()
	}
}

// queuedLocked estimates the amount of queued-but-unclaimed work. Ring
// sizes are read from their atomic cursors; a concurrent dequeue can make
// the estimate stale by one, which at worst causes one spurious retry.
func (p *Pool) queuedLocked() int {
	n := len(p.overflow)
	for _, d := range p.deques {
		n += d.size()
	}
	return n
}

// findWork returns one unit of work for a worker: its own ring first (slot
// is -1 for compensation workers, which own none), then the overflow list,
// then a randomized steal sweep over the other rings.
func (p *Pool) findWork(slot int, rng *uint32) (Runner, bool) {
	if slot >= 0 {
		if q, ok := p.deques[slot].pop(); ok {
			return q, true
		}
	}
	p.mu.Lock()
	if len(p.overflow) > 0 {
		q := p.overflow[0]
		p.overflow[0] = nil // the backing array must not pin the unit
		p.overflow = p.overflow[1:]
		p.mu.Unlock()
		return q, true
	}
	tr := p.tracer
	p.mu.Unlock()
	n := len(p.deques)
	start := int(xorshift(rng)) % n
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v == slot {
			continue
		}
		if q, ok := p.deques[v].pop(); ok {
			p.steals.Add(1)
			if tr != nil {
				tr.Metrics().PoolSteals.Add(1)
			}
			return q, true
		}
	}
	return nil, false
}

// workerLoop is a permanent worker: drain, steal, then sleep until new
// work arrives or the pool shuts down.
func (p *Pool) workerLoop(slot int) {
	id := slot + 1
	rng := uint32(2463534242 + id)
	for {
		if q, ok := p.findWork(slot, &rng); ok {
			p.execute(id, q)
			continue
		}
		// Brief spin before parking: submissions arrive in bursts.
		spun := false
		for i := 0; i < 2 && !spun; i++ {
			runtime.Gosched()
			if q, ok := p.findWork(slot, &rng); ok {
				p.execute(id, q)
				spun = true
			}
		}
		if spun {
			continue
		}
		p.mu.Lock()
		if p.queuedLocked() > 0 {
			// Work arrived between the sweep and the lock (every push is
			// ordered before the submitter's wake() lock section, so
			// re-checking under mu closes the lost-wakeup window).
			p.mu.Unlock()
			continue
		}
		// Park, releasing the run token: an idle worker must not hold a
		// token hostage while a task blocked in Block waits to re-acquire
		// one (all the executing goroutines may be compensation workers).
		p.releaseLocked()
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.sleepers++
		if p.tracer != nil {
			p.tracer.Metrics().PoolParks.Add(1)
		}
		for p.handoffs == 0 && !p.closed {
			p.work.Wait()
		}
		if p.handoffs == 0 {
			// Woken by Shutdown, not by work: retire without a token.
			p.sleepers--
			p.mu.Unlock()
			return
		}
		p.handoffs-- // the waker already counted this worker's token
		if p.tracer != nil {
			p.tracer.Metrics().PoolWakeups.Add(1)
		}
		p.mu.Unlock()
	}
}

// spawnCompLocked launches a transient compensation worker; caller holds
// mu and has checked active < par.
func (p *Pool) spawnCompLocked() {
	p.active++
	p.nextWorker++
	id := p.nextWorker
	if p.tracer != nil {
		p.tracer.Metrics().WorkersStarted.Add(1)
	}
	go p.compLoop(id)
}

// compLoop steals and runs work while it exists and no blocked worker is
// waiting for the token back, then retires. The exit decision and the
// active-- happen in one mu section so a concurrent submit either sees the
// freed token (and spawns a replacement) or this loop sees its work.
func (p *Pool) compLoop(id int) {
	rng := uint32(88675123 + id)
	for {
		p.mu.Lock()
		if p.reacq > 0 || p.closed {
			p.releaseLocked()
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		q, ok := p.findWork(-1, &rng)
		if !ok {
			p.mu.Lock()
			if p.queuedLocked() > 0 && p.reacq == 0 && !p.closed {
				p.mu.Unlock()
				continue
			}
			p.releaseLocked()
			p.mu.Unlock()
			return
		}
		p.execute(id, q)
	}
}

// execute runs one unit while holding a parallelism token.
func (p *Pool) execute(worker int, q Runner) {
	p.mu.Lock()
	p.running++
	p.noteRunningLocked()
	p.mu.Unlock()
	p.runOne(worker, q)
	p.mu.Lock()
	p.running--
	p.pending--
	p.noteRunningLocked()
	if p.pending == 0 {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
}

// noteRunningLocked publishes the running-token gauge to the tracer.
func (p *Pool) noteRunningLocked() {
	if p.tracer != nil {
		p.tracer.Metrics().SetPoolRunning(int64(p.running))
	}
}

// SetPanicHandler installs the callback invoked when a submitted function
// panics past the task layer (TWE bodies convert their own panics to
// errors above this pool, so reaching the handler indicates a bug in
// runtime code, not in a task body). The default handler writes the panic
// and stack to stderr. The handler runs on the surviving worker
// goroutine; it must not panic.
func (p *Pool) SetPanicHandler(h func(worker int, recovered any, stack []byte)) {
	p.mu.Lock()
	p.onPanic = h
	p.mu.Unlock()
}

func (p *Pool) runOne(worker int, r Runner) {
	defer func() {
		// A panicking task must not kill the process or leak the token
		// accounting (DESIGN.md §10): contain the panic, keep the worker,
		// and report through the metrics and the panic handler so the
		// failure is loud without being fatal.
		if r := recover(); r != nil {
			stack := debug.Stack()
			p.mu.Lock()
			h := p.onPanic
			tr := p.tracer
			p.mu.Unlock()
			if tr != nil {
				tr.Metrics().PoolPanics.Add(1)
				tr.Emit(obs.Event{Kind: obs.KindPanic, Worker: int32(worker),
					Detail: fmt.Sprint(r)})
			}
			if h != nil {
				h(worker, r, stack)
				return
			}
			fmt.Fprintf(os.Stderr, "pool: worker %d contained panic: %v\n%s", worker, r, stack)
		}
	}()
	r.RunOn(worker)
}

// Block is called from inside a pool task to wait for an external
// condition. It releases the caller's parallelism token (allowing queued
// work to run — the compensation that prevents blocked tasks from
// deadlocking the pool), calls wait, and re-acquires a token before
// returning.
func (p *Pool) Block(wait func()) {
	p.mu.Lock()
	p.running--
	p.noteRunningLocked()
	// The token passes straight to whoever runs the queued work — a
	// parked sibling, else a compensation worker; with nothing queued it
	// goes back to the pool, where a waiting re-acquirer may take it.
	switch {
	case p.queuedLocked() == 0:
		p.releaseLocked()
	case p.sleepers > 0:
		p.active--
		p.handoffLocked()
	default:
		p.active--
		p.spawnCompLocked()
	}
	p.mu.Unlock()

	wait()

	p.mu.Lock()
	p.reacq++
	for p.active >= p.par {
		p.token.Wait()
	}
	p.reacq--
	p.active++
	p.running++
	p.noteRunningLocked()
	p.mu.Unlock()
}

// Quiesce blocks until every submitted task has finished. Tasks may submit
// more tasks while it waits.
func (p *Pool) Quiesce() {
	p.mu.Lock()
	for p.pending > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Shutdown waits for all work to finish and marks the pool closed; the
// permanent workers retire. Further Submit calls panic.
func (p *Pool) Shutdown() {
	p.Quiesce()
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
}

// Stats returns a snapshot of (running, queued, pending) counts; used by
// tests and the benchmark harness.
func (p *Pool) Stats() (running, queued, pending int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running, p.queuedLocked(), p.pending
}

// xorshift is a tiny per-worker PRNG for randomized steal sweeps.
func xorshift(s *uint32) uint32 {
	x := *s
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*s = x
	return x
}

// --- bounded MPMC ring -----------------------------------------------------

// ringCap is the per-worker ring capacity (power of two). Overflow spills
// to the mutex-guarded list, so the bound trades memory for the common
// case staying lock-free.
const ringCap = 256

// ring is a bounded multi-producer multi-consumer FIFO (Vyukov's array
// queue): each slot carries a sequence number that encodes whether it is
// ready to be filled (seq == enqueue pos) or consumed (seq == dequeue
// pos + 1). Producers are any submitters; consumers are the owning worker
// and stealers.
type ring struct {
	slots [ringCap]rslot
	enq   atomic.Uint64
	deq   atomic.Uint64
}

type rslot struct {
	seq atomic.Uint64
	val Runner
}

func newRing() *ring {
	r := &ring{}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push appends q; false when the ring is full.
func (r *ring) push(q Runner) bool {
	pos := r.enq.Load()
	for {
		s := &r.slots[pos%ringCap]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.val = q
				s.seq.Store(pos + 1) // publish: val write ordered before
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			return false // full: consumer has not freed this slot yet
		default:
			pos = r.enq.Load()
		}
	}
}

// pop removes the oldest element; false when empty.
func (r *ring) pop() (Runner, bool) {
	pos := r.deq.Load()
	for {
		s := &r.slots[pos%ringCap]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				q := s.val
				s.val = nil
				s.seq.Store(pos + ringCap) // recycle for lap pos+ringCap
				return q, true
			}
			pos = r.deq.Load()
		case seq <= pos:
			return nil, false // empty (or the producer mid-publish)
		default:
			pos = r.deq.Load()
		}
	}
}

// size is a racy estimate of the element count (atomic cursor reads).
func (r *ring) size() int {
	e, d := r.enq.Load(), r.deq.Load()
	if e <= d {
		return 0
	}
	return int(e - d)
}
