package svc

import (
	"sync"
	"testing"
	"time"
)

// heldSameKeyPuts pipelines n puts to one key on one v2 connection while
// the first put's body is held until every put was submitted, so the
// other n-1 deterministically stall behind its Session and Shard
// effects. It returns the drained server.
func heldSameKeyPuts(t *testing.T, cfg Config, n int) *Server {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	cfg.Par = 2
	cfg.Hold = func(string, int) { once.Do(func() { <-gate }) }
	s := startTestServer(t, cfg)
	watchdog(t, s, 30*time.Second)

	c, err := DialProto(s.Addr(), ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		req := Request{ID: uint64(i + 1), Op: OpPut, Key: 3, Val: int64(i), Eff: PutEffect(c.Shards, 3, c.SID)}
		if err := c.Send(&req); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Tracer().Metrics().TasksSubmitted.Load() == uint64(n) })
	close(gate)
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("response %d: %s (%s)", i, resp.Status, resp.Err)
		}
	}
	c.Close()
	drainClean(t, s)
	return s
}

// TestDefaultServerRecordsNoEvents pins the cost contract of DESIGN.md §7
// on the serving path: a server nobody asked to trace keeps every metric
// counting but records no events and attributes no stall, even though
// nearly every op stalls behind its predecessor. Asking for a ring
// (TraceEvents > 0) turns recording back on for the same traffic.
func TestDefaultServerRecordsNoEvents(t *testing.T) {
	const n = 200
	s := heldSameKeyPuts(t, Config{}, n)
	if l := s.Tracer().Len(); l != 0 {
		t.Fatalf("default server retained %d trace events, want 0", l)
	}
	d := s.DebugSnapshot(10)
	if d.Contention.TotalStallNS != 0 || d.Contention.Observations != 0 || d.TraceEvents != 0 {
		t.Fatalf("default server attributed contention: %+v, trace_events=%d", d.Contention, d.TraceEvents)
	}
	m := s.Tracer().Metrics().Snapshot()
	if m.TasksSubmitted != n || m.AdmissionCount != n {
		t.Fatalf("metrics stopped counting: submitted=%d admissions=%d, want %d each", m.TasksSubmitted, m.AdmissionCount, n)
	}
	if m.ConflictChecks == 0 {
		t.Fatal("no conflict checks counted for 199 stalled puts")
	}

	traced := heldSameKeyPuts(t, Config{TraceEvents: 4096}, n)
	if traced.Tracer().Len() == 0 {
		t.Fatal("TraceEvents > 0 recorded no events")
	}
	if d := traced.DebugSnapshot(10); d.Contention.TotalStallNS == 0 {
		t.Fatalf("TraceEvents > 0 attributed no stall: %+v", d.Contention)
	}
}
