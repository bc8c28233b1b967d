package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"twe/internal/svc"
)

// fleet is an in-process cluster: n twe-serve shards plus a router, all
// with the isolation oracle attached shard-side.
type fleet struct {
	shards []*svc.Server
	router *Router
	addr   string // router listen address
}

func startFleet(t *testing.T, n int, lane string) *fleet {
	t.Helper()
	f := &fleet{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := svc.Start(svc.Config{
			ShardID:   i,
			Advertise: fmt.Sprintf("inproc-shard-%d", i),
			Isolcheck: true,
		})
		if err != nil {
			t.Fatalf("start shard %d: %v", i, err)
		}
		f.shards = append(f.shards, s)
		addrs[i] = s.Addr()
	}
	r, err := New(Config{Shards: addrs, CrossLane: lane})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	f.router = r
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = ln.Addr().String()
	r.Start(ln)
	return f
}

// drainClean shuts the fleet down in dependency order and fails the test
// on any dirty drain or shard-side isolation violation.
func (f *fleet) drainClean(t *testing.T) {
	t.Helper()
	if err := f.router.Drain(10 * time.Second); err != nil {
		t.Errorf("router drain: %v", err)
	}
	for i, s := range f.shards {
		if err := s.Drain(10 * time.Second); err != nil {
			t.Errorf("shard %d drain: %v", i, err)
		}
		if v := s.Violations(); len(v) != 0 {
			t.Errorf("shard %d isolation violations: %v", i, v)
		}
	}
}

// awaitFleetClean polls the control-plane snapshot until the fleet-wide
// accounting identities hold (member reaping after client kills is
// asynchronous), failing after a deadline.
func awaitFleetClean(t *testing.T, r *Router) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := r.Snapshot()
		v := FleetCheck(&snap)
		if len(v) == 0 {
			return &snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet check never settled: %v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func runClusterLoad(t *testing.T, lane string, cfg svc.LoadConfig) {
	t.Helper()
	f := startFleet(t, 2, lane)
	cfg.Addr = f.addr
	rep, err := svc.RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if rep.Checks == 0 {
		t.Fatal("oracle performed zero checks")
	}
	snap := awaitFleetClean(t, f.router)
	var fwd int64
	for _, m := range snap.Members {
		fwd += m.Fwd + m.Prep
	}
	if fwd == 0 {
		t.Fatal("no operations reached any member")
	}
	f.drainClean(t)
}

// TestClusterLoadTwoPhase drives the full differential load battery
// through a 2-shard fleet on the two-phase cross lane: mixed protocols,
// contention, and periodic cross-shard scans, with the isolation oracle
// on every shard and the exact client/server cross-check intact.
func TestClusterLoadTwoPhase(t *testing.T) {
	runClusterLoad(t, "2pc", svc.LoadConfig{
		Conns: 6, Requests: 90, Pipeline: 4,
		Conflict: 0.25, ScanEvery: 7, Seed: 1, Proto: "mixed",
	})
}

// TestClusterLoadSerial drives the same battery over the serial global
// lane — the stop-the-world fallback must produce identical oracle
// outcomes, only slower.
func TestClusterLoadSerial(t *testing.T) {
	runClusterLoad(t, "serial", svc.LoadConfig{
		Conns: 4, Requests: 60, Pipeline: 4,
		Conflict: 0.25, ScanEvery: 6, Seed: 2, Proto: "v1",
	})
}

// TestClusterLoadFaults turns on the fault battery (abrupt client kills
// plus wire cancels): the routers best-effort disconnect cancels and the
// shards' reapers must release every effect, and the sweep oracle's
// possible-write sets must still hold fleet-wide.
func TestClusterLoadFaults(t *testing.T) {
	runClusterLoad(t, "2pc", svc.LoadConfig{
		Conns: 6, Requests: 80, Pipeline: 4,
		Conflict: 0.3, ScanEvery: 9, Seed: 3, Proto: "mixed", Faults: true,
	})
}

// TestClusterSingleMember: a 1-member fleet routes everything (scans
// included) straight to the only shard — no coordinator rounds at all.
func TestClusterSingleMember(t *testing.T) {
	f := startFleet(t, 1, "2pc")
	rep, err := svc.RunLoad(svc.LoadConfig{
		Addr: f.addr, Conns: 3, Requests: 50,
		Conflict: 0.2, ScanEvery: 5, Seed: 4, Proto: "v2",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	snap := awaitFleetClean(t, f.router)
	if got := snap.Members[0].Prep; got != 0 {
		t.Errorf("single-member fleet ran %d coordinator prepares, want 0", got)
	}
	f.drainClean(t)
}

// TestRouterRejectsTwoPhaseOps: clients cannot drive the coordinator's
// internal prepare/commit/abort ops through the router.
func TestRouterRejectsTwoPhaseOps(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{svc.OpPrepare, svc.OpCommit, svc.OpAbort} {
		resp, err := c.Do(&svc.Request{Op: op, Key: 1, Eff: svc.PutEffect(c.Shards, 1, c.SID)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != svc.StatusRejected {
			t.Fatalf("%s through router: status %q, want rejected", op, resp.Status)
		}
	}
	c.Close()
	f.drainClean(t)
}

// TestRouterForeignSessionRejected: a declared effect claiming another
// session's namespace is refused at the router, not forwarded.
func TestRouterForeignSessionRejected(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	eff := fmt.Sprintf("writes Root:Shard:[1], writes Root:Session:[%d]", c.SID+100)
	resp, err := c.Do(&svc.Request{Op: svc.OpPut, Key: 1, Val: 5, Eff: eff})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != svc.StatusRejected {
		t.Fatalf("foreign-session put: status %q (%s), want rejected", resp.Status, resp.Err)
	}
	c.Close()
	f.drainClean(t)
}

// TestClusterCrossShardConflict races cross-shard scans against
// single-shard puts: key 0 lives on member 0 and key 1 on member 1, a
// writer walks both monotonically upward round by round, and a second
// connection keeps scanning. Each scan must stay within the reachable
// envelope and never go backwards, and the contention must neither
// deadlock the coordinator nor surface a non-OK status.
func TestClusterCrossShardConflict(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	const rounds = 30
	done := make(chan error, 1)
	go func() {
		c2, err := svc.Dial(f.addr)
		if err != nil {
			done <- err
			return
		}
		defer c2.Close()
		for r := 1; r <= rounds; r++ {
			for key := 0; key < 2; key++ {
				resp, err := c2.Do(&svc.Request{Op: svc.OpPut, Key: key, Val: int64(r),
					Eff: svc.PutEffect(c2.Shards, key, c2.SID)})
				if err != nil {
					done <- err
					return
				}
				if resp.Status != svc.StatusOK {
					done <- fmt.Errorf("put round %d key %d: %s", r, key, resp.Status)
					return
				}
			}
		}
		done <- nil
	}()
	for i := 0; i < 15; i++ {
		resp, err := c.Do(&svc.Request{Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != svc.StatusOK {
			t.Fatalf("scan %d: status %q (%s)", i, resp.Status, resp.Err)
		}
		if resp.Val < last {
			t.Fatalf("scan %d went backwards: %d after %d (torn cross-shard read)", i, resp.Val, last)
		}
		if resp.Val > 2*rounds {
			t.Fatalf("scan %d: %d exceeds any reachable state (max %d)", i, resp.Val, 2*rounds)
		}
		last = resp.Val
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close()
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}

// TestRouterRejectsOutOfRangeKeys: a malformed key must be rejected at
// the router, never routed — a negative key on a session-only (KindNone)
// effect used to drive OwnerOfKey to a negative member index and panic
// the whole router process.
func TestRouterRejectsOutOfRangeKeys(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op  string
		key int
		eff string
	}{
		{svc.OpAdd, -1, svc.AddEffect(c.SID)},
		{svc.OpAdd, c.Keys, svc.AddEffect(c.SID)},
		{svc.OpPut, -7, svc.PutEffect(c.Shards, 0, c.SID)},
		{svc.OpGet, c.Keys + 100, svc.GetEffect(c.Shards, 0, c.SID)},
	}
	for _, tc := range cases {
		resp, err := c.Do(&svc.Request{Op: tc.op, Key: tc.key, Val: 1, Eff: tc.eff})
		if err != nil {
			t.Fatalf("%s key %d: %v", tc.op, tc.key, err)
		}
		if resp.Status != svc.StatusRejected {
			t.Fatalf("%s key %d: status %q (%s), want rejected", tc.op, tc.key, resp.Status, resp.Err)
		}
	}
	// The router (and this session) must still be fully alive.
	resp, err := c.Do(&svc.Request{Op: svc.OpPut, Key: 1, Val: 9, Eff: svc.PutEffect(c.Shards, 1, c.SID)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != svc.StatusOK {
		t.Fatalf("follow-up put: status %q (%s), want ok", resp.Status, resp.Err)
	}
	c.Close()
	f.drainClean(t)
}

// TestCrossOpMustCoverOwner: a cross-shard non-scan op whose declared
// effect does not reach its key's owner member must be rejected. Before
// this check every leg was a pure hold — the op executed nowhere, no
// member's Covers fired, and the router answered StatusOK for a silent
// no-op, breaking the observationally-single-node contract.
func TestCrossOpMustCoverOwner(t *testing.T) {
	for _, lane := range []string{"2pc", "serial"} {
		t.Run(lane, func(t *testing.T) {
			f := startFleet(t, 3, lane)
			c, err := svc.Dial(f.addr)
			if err != nil {
				t.Fatal(err)
			}
			// Key 0 lives on store shard 0 → member 0; the declared effect
			// touches members 1 and 2 only.
			eff := fmt.Sprintf("writes Root:Shard:[1], writes Root:Shard:[2], writes Root:Session:[%d]", c.SID)
			resp, err := c.Do(&svc.Request{Op: svc.OpPut, Key: 0, Val: 5, Eff: eff})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != svc.StatusRejected {
				t.Fatalf("uncovered cross put: status %q (%s), want rejected", resp.Status, resp.Err)
			}
			// The same shape covering the owner is admitted normally.
			eff = fmt.Sprintf("writes Root:Shard:[0], writes Root:Shard:[1], writes Root:Session:[%d]", c.SID)
			resp, err = c.Do(&svc.Request{Op: svc.OpPut, Key: 0, Val: 5, Eff: eff})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != svc.StatusOK {
				t.Fatalf("covered cross put: status %q (%s), want ok", resp.Status, resp.Err)
			}
			c.Close()
			f.drainClean(t)
		})
	}
}

// TestMemberLossFailsFastAndRecovers: when a member dies mid-session the
// ops it owes must fail with an error status (never wedge the session),
// later forwards to it must fail fast through a re-dial attempt, and
// traffic to surviving members — plus a clean router drain — must keep
// working. Before the recvLoop slot-clearing fix, the first forward
// after the loss parked an entry on the dead connection forever and a
// drain could never finish.
func TestMemberLossFailsFastAndRecovers(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(&svc.Request{Op: svc.OpPut, Key: 1, Val: 1, Eff: svc.PutEffect(c.Shards, 1, c.SID)})
	if err != nil || resp.Status != svc.StatusOK {
		t.Fatalf("warm-up put to member 1: %v / %+v", err, resp)
	}
	// Kill member 1 (key 1's owner).
	if err := f.shards[1].Drain(5 * time.Second); err != nil {
		t.Fatalf("drain shard 1: %v", err)
	}
	// Every subsequent op owned by member 1 must resolve with an error
	// status — whether it races the connection-loss sweep or hits the
	// cleared slot's failed re-dial.
	for i := 0; i < 3; i++ {
		resp, err = c.Do(&svc.Request{Op: svc.OpPut, Key: 1, Val: 2, Eff: svc.PutEffect(c.Shards, 1, c.SID)})
		if err != nil {
			t.Fatalf("put %d after member loss: transport error %v (session wedged?)", i, err)
		}
		if resp.Status != svc.StatusError {
			t.Fatalf("put %d after member loss: status %q (%s), want error", i, resp.Status, resp.Err)
		}
	}
	// The surviving member still serves.
	resp, err = c.Do(&svc.Request{Op: svc.OpPut, Key: 0, Val: 3, Eff: svc.PutEffect(c.Shards, 0, c.SID)})
	if err != nil || resp.Status != svc.StatusOK {
		t.Fatalf("put to surviving member 0: %v / %+v", err, resp)
	}
	c.Close()
	if err := f.router.Drain(10 * time.Second); err != nil {
		t.Errorf("router drain after member loss: %v", err)
	}
	if err := f.shards[0].Drain(5 * time.Second); err != nil {
		t.Errorf("drain shard 0: %v", err)
	}
	for i := 0; i < 2; i++ {
		if v := f.shards[i].Violations(); len(v) != 0 {
			t.Errorf("shard %d isolation violations: %v", i, v)
		}
	}
}

// TestStartThenImmediateDrain: a Drain issued right after Start must see
// the listener and the accept loop Start set up (under -race, any missing
// ordering between the two is a reported race), and a Drain on a router
// that never started has nothing to stop.
func TestStartThenImmediateDrain(t *testing.T) {
	s, err := svc.Start(svc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(5 * time.Second)
	cfg := Config{Shards: []string{s.Addr()}}
	for i := 0; i < 1000; i++ {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r.Start(ln)
		if err := r.Drain(5 * time.Second); err != nil {
			t.Fatalf("round %d: drain: %v", i, err)
		}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(time.Second); err != nil {
		t.Fatalf("drain of an unstarted router: %v", err)
	}
}

// TestMemoV1Bounded: the per-session v1 route memo must stay bounded by
// EffCacheSize no matter how many distinct effect strings a client
// cycles through.
func TestMemoV1Bounded(t *testing.T) {
	const cap = 8
	s, err := svc.Start(svc.Config{Isolcheck: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Shards: []string{s.Addr()}, EffCacheSize: cap})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.Start(ln)
	c, err := svc.DialProto(ln.Addr().String(), svc.ProtoV1)
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	if len(r.live) != 1 {
		r.mu.Unlock()
		t.Fatalf("want 1 live session, have %d", len(r.live))
	}
	var sess *rsession
	for s := range r.live {
		sess = s
	}
	r.mu.Unlock()
	for i := 0; i < 4*cap; i++ {
		// Distinct strings, all covering the put's required set (the extra
		// session-subtree write is subsumed by the session write).
		eff := fmt.Sprintf("writes Root:Shard:[1], writes Root:Session:[%d], writes Root:Session:[%d]:[%d]", c.SID, c.SID, i)
		resp, err := c.Do(&svc.Request{Op: svc.OpPut, Key: 1, Val: int64(i), Eff: eff})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != svc.StatusOK {
			t.Fatalf("put %d: status %q (%s)", i, resp.Status, resp.Err)
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.live)
		r.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(sess.memoV1); got > cap {
		t.Fatalf("memoV1 grew to %d entries, want <= %d", got, cap)
	}
	if err := r.Drain(5 * time.Second); err != nil {
		t.Errorf("drain: %v", err)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Errorf("shard drain: %v", err)
	}
}
