package svc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	cfg.Isolcheck = true
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drainClean(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := len(s.Violations()); n > 0 {
		t.Fatalf("%d isolation violation(s), first: %v", n, s.Violations()[0])
	}
}

// watchdog crashes the test binary if the test is still running after
// d, printing every goroutine's stack and the scheduler's backlog, so a
// hang fails in seconds instead of at go test's 10-minute timeout.
func watchdog(t *testing.T, s *Server, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		// Pending takes the scheduler's lock, which a wedged scheduler
		// may hold: report it only if it answers promptly.
		pending := "no answer within 1s"
		ch := make(chan int, 1)
		go func() { ch <- s.rt.Pending() }()
		select {
		case p := <-ch:
			pending = fmt.Sprint(p)
		case <-time.After(time.Second):
		}
		panic(fmt.Sprintf("%s still running after %v; rt.Pending() = %s\n\n%s", t.Name(), d, pending, buf[:n]))
	})
	t.Cleanup(func() { timer.Stop() })
}

// TestServeEndToEnd drives the full closed-loop generator against an
// in-process server under both schedulers: pipelined mixed traffic with
// scans and dyneff adds, per-connection oracle, final-state sweep, exact
// accounting, clean drain.
func TestServeEndToEnd(t *testing.T) {
	for _, sched := range []string{"tree", "naive", "tree-lockfree"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			s := startTestServer(t, Config{Sched: sched, Par: 4, Shards: 8, Keys: 128})
			watchdog(t, s, 30*time.Second)
			rep, err := RunLoad(LoadConfig{
				Addr: s.Addr(), Conns: 8, Requests: 40, Pipeline: 4,
				Seed: 3, Conflict: 0.3, ScanEvery: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				t.Fatalf("%d violation(s), first: %s", len(rep.Violations), rep.Violations[0])
			}
			if rep.Served == 0 || rep.Served != rep.Sent {
				t.Fatalf("served %d of %d sent (no overload configured)", rep.Served, rep.Sent)
			}
			if rep.ServerStats.EffHits == 0 {
				t.Fatal("effect cache never hit")
			}
			drainClean(t, s)
		})
	}
}

// TestLockFreeServeCounters: served through the tree-lockfree scheduler,
// low-contention traffic must actually ride the §17 fast path, the cache
// must intern the wire effects, and the observability surface
// (DebugSnapshot, Prometheus exposition) must report all of it.
func TestLockFreeServeCounters(t *testing.T) {
	s := startTestServer(t, Config{Sched: "tree-lockfree", Par: 4, Shards: 8, Keys: 128})
	watchdog(t, s, 30*time.Second)
	rep, err := RunLoad(LoadConfig{
		Addr: s.Addr(), Conns: 4, Requests: 50, Pipeline: 1,
		Seed: 11, Conflict: 0, ScanEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	d := s.DebugSnapshot(5)
	if d.Admit.Fastpath == 0 {
		t.Errorf("low-contention serving never took the fast path: admit=%+v", d.Admit)
	}
	if d.Interner.Resident == 0 {
		t.Error("effect cache registered no interned regions")
	}
	if d.Interner.Cap <= 0 {
		t.Errorf("interner cap = %d", d.Interner.Cap)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if d.PoolParks == 0 || d.PoolWakeups == 0 {
		t.Errorf("pool park/wake counters not reported: parks=%d wakeups=%d", d.PoolParks, d.PoolWakeups)
	}
	for _, want := range []string{"twe_admit_fastpath_total", "twe_admit_slowpath_total",
		"twe_pool_steals_total", "twe_pool_parks_total", "twe_pool_wakeups_total",
		"twe_interner_resident"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	drainClean(t, s)
}

// TestServeSingleConnOracleExact: with one connection every response is
// exactly predictable (gets, scans, adds), so the in-run oracle checks
// every value.
func TestServeSingleConnOracleExact(t *testing.T) {
	s := startTestServer(t, Config{Par: 2, Shards: 4, Keys: 64})
	rep, err := RunLoad(LoadConfig{
		Addr: s.Addr(), Conns: 1, Requests: 120, Pipeline: 8,
		Seed: 5, Conflict: 0.5, ScanEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	drainClean(t, s)
}

// TestBusyBackpressure pins the admission bound deterministically: a
// gated put occupies the single in-flight slot, so the next request
// must be refused busy while the first still resolves in order.
func TestBusyBackpressure(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s := startTestServer(t, Config{Par: 2, MaxInflight: 1, Hold: func(op string, key int) {
		if op == OpPut && key == 0 {
			entered <- struct{}{}
			<-gate
		}
	}})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	send := func(id uint64, op string, key int) {
		t.Helper()
		req := &Request{ID: id, Op: op, Key: key}
		switch op {
		case OpPut:
			req.Val = 7
			req.Eff = PutEffect(c.Shards, key, c.SID)
		case OpGet:
			req.Eff = GetEffect(c.Shards, key, c.SID)
		}
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	send(1, OpPut, 0)
	<-entered // body running, in-flight slot held
	send(2, OpPut, 1)
	// The reader refuses request 2 the moment it handles it; wait for
	// that decision, then let request 1 finish.
	waitFor(t, func() bool { return s.Metrics().Busy.Load() == 1 })
	close(gate)

	r1, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != 1 || r1.Status != StatusOK {
		t.Fatalf("resp1 = %+v, want ok", r1)
	}
	if r2.ID != 2 || r2.Status != StatusBusy {
		t.Fatalf("resp2 = %+v, want busy", r2)
	}
	if got := s.Metrics().Served.Load(); got != 1 {
		t.Fatalf("served = %d", got)
	}
	c.Close()
	drainClean(t, s)
}

// TestDeadlineShed: with a server-side deadline, a request stalled
// behind a long-running conflicting task is shed without performing any
// access, and a request whose body observes the expired deadline at
// start sheds cooperatively. served+shed accounting stays exact.
func TestDeadlineShed(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s := startTestServer(t, Config{Par: 2, Deadline: 20 * time.Millisecond, Hold: func(op string, key int) {
		if op == OpPut && key == 0 {
			entered <- struct{}{}
			<-gate
		}
	}})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for id, key := range []int{0, 0} {
		req := &Request{ID: uint64(id + 1), Op: OpPut, Key: key, Val: 9, Eff: PutEffect(c.Shards, key, c.SID)}
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			<-entered
		}
	}
	// Hold well past both deadlines: request 1's body sees the expired
	// deadline when released; request 2 never starts (same shard and
	// session conflict) and is descheduled by its timer.
	time.Sleep(120 * time.Millisecond)
	close(gate)

	for want := 1; want <= 2; want++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint64(want) || resp.Status != StatusShed {
			t.Fatalf("resp %d = %+v, want shed", want, resp)
		}
	}
	m := s.Metrics()
	if m.Shed.Load() != 2 || m.Served.Load() != 0 {
		t.Fatalf("shed=%d served=%d, want 2/0", m.Shed.Load(), m.Served.Load())
	}
	c.Close()
	drainClean(t, s) // served accounting: 0 store ops == 0 served
}

// TestCancelOp pins both wire-cancel outcomes deterministically: a
// waiting request is cancelled before start (ack 1), a running request
// only cooperatively (ack 0) — and both resolve with StatusCancelled
// having performed no access.
func TestCancelOp(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s := startTestServer(t, Config{Par: 2, Hold: func(op string, key int) {
		if op == OpPut && key == 0 {
			entered <- struct{}{}
			<-gate
		}
	}})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	send := func(req *Request) {
		t.Helper()
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(&Request{ID: 1, Op: OpPut, Key: 0, Val: 5, Eff: PutEffect(c.Shards, 0, c.SID)})
	<-entered // request 1 running, holds Session:[sid]
	send(&Request{ID: 2, Op: OpPut, Key: 1, Val: 6, Eff: PutEffect(c.Shards, 1, c.SID)})
	send(&Request{ID: 3, Op: OpCancel, Target: 2})  // waiting: cancel lands
	send(&Request{ID: 4, Op: OpCancel, Target: 1})  // running: cooperative only
	send(&Request{ID: 5, Op: OpCancel, Target: 99}) // unknown id: no-op ack
	// All three cancels must be handled (causes set) before request 1's
	// body resumes and runs its cancellation check.
	waitFor(t, func() bool { return s.Metrics().ControlOps.Load() == 3 })
	close(gate)

	wants := []struct {
		status string
		val    int64
	}{
		{StatusCancelled, 0}, // 1: body saw the cooperative cancel at its check
		{StatusCancelled, 0}, // 2: never started
		{StatusOK, 1},        // ack: landed before start
		{StatusOK, 0},        // ack: already running
		{StatusOK, 0},        // ack: unknown target
	}
	for i, w := range wants {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint64(i+1) || resp.Status != w.status || resp.Val != w.val {
			t.Fatalf("resp %d = %+v, want status %s val %d", i+1, resp, w.status, w.val)
		}
	}
	m := s.Metrics()
	if m.Cancelled.Load() != 2 || m.Served.Load() != 0 || m.ControlOps.Load() != 3 {
		t.Fatalf("cancelled=%d served=%d control=%d", m.Cancelled.Load(), m.Served.Load(), m.ControlOps.Load())
	}
	c.Close()
	drainClean(t, s)
}

// TestRejected covers the admission rejections: unparsable effect,
// declared effect that does not cover the op, bad key, unknown op.
func TestRejected(t *testing.T) {
	s := startTestServer(t, Config{Par: 2})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		req  *Request
		frag string
	}{
		{&Request{ID: 1, Op: OpPut, Key: 0, Val: 1, Eff: "bogus Root:X"}, "bad effect"},
		{&Request{ID: 2, Op: OpPut, Key: 0, Val: 1, Eff: GetEffect(c.Shards, 0, c.SID)}, "does not cover"},
		{&Request{ID: 3, Op: OpGet, Key: 1 << 20, Eff: AddEffect(c.SID)}, "out of range"},
		{&Request{ID: 4, Op: "nonsense", Eff: AddEffect(c.SID)}, "unknown op"},
	}
	for _, tc := range cases {
		resp, err := c.Do(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusRejected || !strings.Contains(resp.Err, tc.frag) {
			t.Fatalf("req %d: %+v, want rejected with %q", tc.req.ID, resp, tc.frag)
		}
	}
	// A wider-than-required declaration is fine: the wire effect is the
	// admission key, not an exact match.
	resp, err := c.Do(&Request{ID: 5, Op: OpPut, Key: 0, Val: 3, Eff: "writes Root:Shard:*, writes Root:Session:*"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("wide declaration refused: %+v", resp)
	}
	if got := s.Metrics().Rejected.Load(); got != 4 {
		t.Fatalf("rejected = %d", got)
	}
	c.Close()
	drainClean(t, s)
}

// TestDisconnectReleasesEffects: an abrupt client disconnect cancels its
// in-flight requests; every effect is released, the in-flight gauge
// returns to zero, and the runtime quiesces.
func TestDisconnectReleasesEffects(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	s := startTestServer(t, Config{Par: 2, Hold: func(op string, key int) {
		if op == OpPut && key == 0 {
			entered <- struct{}{}
			<-gate
		}
	}})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	send := func(req *Request) {
		t.Helper()
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(&Request{ID: 1, Op: OpPut, Key: 0, Val: 5, Eff: PutEffect(c.Shards, 0, c.SID)})
	<-entered
	send(&Request{ID: 2, Op: OpPut, Key: 1, Val: 6, Eff: PutEffect(c.Shards, 1, c.SID)})
	waitFor(t, func() bool { return s.Metrics().Inflight() == 2 })
	c.Close() // abrupt: two requests in flight
	waitFor(t, func() bool { return s.Metrics().Disconnects.Load() == 1 })
	close(gate)

	waitFor(t, func() bool { return s.Stats().Sessions == 0 && s.Metrics().Inflight() == 0 })
	m := s.Metrics()
	if m.Cancelled.Load() != 2 || m.Served.Load() != 0 {
		t.Fatalf("cancelled=%d served=%d, want 2/0", m.Cancelled.Load(), m.Served.Load())
	}
	drainClean(t, s)
}

// TestRunLoadFaults is the full fault mode end-to-end: kills, wire
// cancels, then server-idle and final-state oracles.
func TestRunLoadFaults(t *testing.T) {
	s := startTestServer(t, Config{Par: 4, Shards: 8, Keys: 128})
	rep, err := RunLoad(LoadConfig{
		Addr: s.Addr(), Conns: 9, Requests: 40, Pipeline: 4,
		Seed: 11, Conflict: 0.25, ScanEvery: 13, Faults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("%d violation(s), first: %s", len(rep.Violations), rep.Violations[0])
	}
	if rep.Killed != 3 {
		t.Fatalf("killed = %d, want 3", rep.Killed)
	}
	if rep.ServerStats.Inflight != 0 {
		t.Fatalf("in-flight gauge leaked: %d", rep.ServerStats.Inflight)
	}
	drainClean(t, s)
}

// TestDrainWithIdleConnection: drain must not hang on a connected but
// silent client; the client observes the close.
func TestDrainWithIdleConnection(t *testing.T) {
	s := startTestServer(t, Config{Par: 2})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put(3, 7); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Drain(5 * time.Second) }()
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv succeeded after drain")
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
