package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
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
	return startFleetWith(t, n, lane, nil)
}

// startFleetWith is startFleet with a hook that adjusts member i's
// configuration before it starts.
func startFleetWith(t *testing.T, n int, lane string, tweak func(i int, c *svc.Config)) *fleet {
	t.Helper()
	f := &fleet{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := svc.Config{
			ShardID:   i,
			Advertise: fmt.Sprintf("inproc-shard-%d", i),
			Isolcheck: true,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		s, err := svc.Start(cfg)
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

// loadWallBound bounds one load battery through the router. A router
// hang then fails that one test, with every goroutine's stack, instead of
// stalling the package until its -timeout panic hides every later
// verdict.
const loadWallBound = 90 * time.Second

func runClusterLoad(t *testing.T, lane string, cfg svc.LoadConfig) {
	t.Helper()
	f := startFleet(t, 2, lane)
	cfg.Addr = f.addr
	type result struct {
		rep *svc.LoadReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := svc.RunLoad(cfg)
		done <- result{rep, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(loadWallBound):
		buf := make([]byte, 4<<20)
		buf = buf[:runtime.Stack(buf, true)]
		// Tear the fleet down so the stuck load returns and the next test
		// starts clean.
		f.router.Drain(time.Second)
		for _, s := range f.shards {
			s.Drain(time.Second)
		}
		t.Fatalf("load did not finish within %v (router hang?); goroutines:\n%s", loadWallBound, buf)
	}
	rep, err := r.rep, r.err
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

// recvAll reads n responses within a 5 s deadline: a session whose
// forwards sit unflushed while it waits would hang, and the deadline
// turns that hang into a failure.
func recvAll(t *testing.T, c *svc.Client, n int) []*svc.Response {
	t.Helper()
	c.RawConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]*svc.Response, 0, n)
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("response %d of %d: %v (a forward left unflushed?)", i+1, n, err)
		}
		out = append(out, resp)
	}
	return out
}

// TestFlushPointsBurst: the router flushes forwards once per client
// read, so a whole pipeline that arrives in one read must still reach
// the members before the session waits on them: (a) puts ahead of a
// scan wait at the cross-op barrier, (b) more gets than the writer
// queue holds wait at the full queue. Each pipeline goes out in one
// Write, on both cross lanes.
func TestFlushPointsBurst(t *testing.T) {
	cases := []struct {
		name string
		op   string
		n    int
		scan int64 // the scan's expected sum
	}{
		{"puts-then-scan", svc.OpPut, 8, 7 + 8},
		{"gets-overflow-queue", svc.OpGet, 300, 0},
	}
	for _, lane := range []string{"2pc", "serial"} {
		for _, tc := range cases {
			t.Run(lane+"/"+tc.name, func(t *testing.T) {
				f := startFleet(t, 2, lane)
				c, err := svc.DialProto(f.addr, svc.ProtoV2)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.n; i++ {
					key := i % 2 // both members
					req := svc.Request{ID: uint64(i + 1), Op: tc.op, Key: key, Val: int64(i + 1)}
					if tc.op == svc.OpPut {
						req.Eff = svc.PutEffect(c.Shards, key, c.SID)
					} else {
						req.Eff = svc.GetEffect(c.Shards, key, c.SID)
					}
					if err := c.Send(&req); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Send(&svc.Request{ID: uint64(tc.n + 1), Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)}); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				resps := recvAll(t, c, tc.n+1)
				for i, resp := range resps {
					if resp.ID != uint64(i+1) || resp.Status != svc.StatusOK {
						t.Fatalf("response %d: id %d status %q (%s)", i+1, resp.ID, resp.Status, resp.Err)
					}
				}
				if got := resps[tc.n].Val; got != tc.scan {
					t.Fatalf("scan after the pipeline read %d, want %d", got, tc.scan)
				}
				c.Close()
				awaitFleetClean(t, f.router)
				f.drainClean(t)
			})
		}
	}
}

// TestFlushPointHalfFrame: (c) a v2 session's puts arrive in the same
// read as the first half of its next frame. Its reader then waits on the
// socket with a request buffered, but not a whole one, and must have
// flushed the puts first: they hold the flow lock a second session's
// serial-lane scan waits for.
func TestFlushPointHalfFrame(t *testing.T) {
	f := startFleet(t, 2, "serial")
	// The first session reaches the router through a tap that hands its
	// request bytes to the test, so the test decides where a Write ends.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type tap struct{ client, up net.Conn }
	taps := make(chan tap, 1)
	go func() {
		cl, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", f.addr)
		if err != nil {
			cl.Close()
			return
		}
		var pre [4]byte
		if _, err := io.ReadFull(cl, pre[:]); err == nil {
			up.Write(pre[:])
		}
		go io.Copy(cl, up)
		taps <- tap{cl, up}
	}()
	c1, err := svc.DialProto(ln.Addr().String(), svc.ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	tp := <-taps
	defer tp.up.Close()
	defer tp.client.Close()
	// captured returns what c1 wrote by its last Flush.
	captured := func() []byte {
		var out []byte
		buf := make([]byte, 64<<10)
		for {
			tp.client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, err := tp.client.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				return out
			}
		}
	}
	put := func(id uint64) {
		if err := c1.Send(&svc.Request{ID: id, Op: svc.OpPut, Key: 0, Val: int64(id),
			Eff: svc.PutEffect(c1.Shards, 0, c1.SID)}); err != nil {
			t.Fatal(err)
		}
	}
	flush := func(c *svc.Client) {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 4; id++ {
		put(id)
	}
	flush(c1)
	puts := captured()
	put(5)
	flush(c1)
	last := captured()
	if len(puts) == 0 || len(last) < 2 {
		t.Fatalf("tap captured %d and %d bytes", len(puts), len(last))
	}
	half := len(last) / 2
	if _, err := tp.up.Write(append(puts, last[:half]...)); err != nil {
		t.Fatal(err)
	}
	// Start the scan only once the router has read the four puts.
	for deadline := time.Now().Add(5 * time.Second); f.router.Metrics().Requests.Load() < 4; {
		if time.Now().After(deadline) {
			t.Fatal("the router never read the four puts")
		}
		time.Sleep(time.Millisecond)
	}

	c2, err := svc.DialProto(f.addr, svc.ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(&svc.Request{ID: 1, Op: svc.OpScan, Eff: svc.ScanEffect(c2.SID)}); err != nil {
		t.Fatal(err)
	}
	flush(c2)
	scan := recvAll(t, c2, 1)[0]
	if scan.Status != svc.StatusOK || scan.Val != 4 {
		t.Fatalf("serial scan: status %q val %d (%s), want ok 4", scan.Status, scan.Val, scan.Err)
	}

	if _, err := tp.up.Write(last[half:]); err != nil {
		t.Fatal(err)
	}
	for i, resp := range recvAll(t, c1, 5) {
		if resp.ID != uint64(i+1) || resp.Status != svc.StatusOK {
			t.Fatalf("put %d: id %d status %q (%s)", i+1, resp.ID, resp.Status, resp.Err)
		}
	}
	c1.Close()
	c2.Close()
	tp.up.Close()
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}

// TestFlushPointBadFrame: (d) puts arrive in the same read as a whole
// but malformed frame. The read fails without waiting, so the reader's
// exit must flush the puts: the writer answers them before it closes
// the connection.
func TestFlushPointBadFrame(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.DialProto(f.addr, svc.ProtoV1)
	if err != nil {
		t.Fatal(err)
	}
	var burst bytes.Buffer
	for id := uint64(1); id <= 4; id++ {
		key := int(id % 2)
		if err := svc.WriteFrame(&burst, &svc.Request{ID: id, Op: svc.OpPut, Key: key, Val: int64(id),
			Eff: svc.PutEffect(c.Shards, key, c.SID)}); err != nil {
			t.Fatal(err)
		}
	}
	burst.Write([]byte{0, 0, 0, 3, 'b', 'a', 'd'})
	if _, err := c.RawConn().Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, resp := range recvAll(t, c, 4) {
		if resp.ID != uint64(i+1) || (resp.Status != svc.StatusOK && resp.Status != svc.StatusCancelled) {
			t.Fatalf("put %d: id %d status %q (%s)", i+1, resp.ID, resp.Status, resp.Err)
		}
	}
	c.Close()
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}

// TestAbortConcurrentLegs: a round sends its prepares at once, so one
// member can refuse while another has already prepared. Member 1 takes
// one op at a time and is busy with a parked put; the scan must answer
// busy, member 0's prepared hold must be aborted before the answer, and
// the fleet must account cleanly once the put is released.
func TestAbortConcurrentLegs(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	f := startFleetWith(t, 2, "2pc", func(i int, c *svc.Config) {
		if i != 1 {
			return
		}
		c.MaxInflight = 1
		c.Hold = func(op string, key int) {
			if op == svc.OpPut {
				entered <- struct{}{}
				<-release
			}
		}
	})
	c1, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	putDone := make(chan error, 1)
	go func() {
		resp, err := c1.Put(1, 5) // key 1 lives on member 1
		if err == nil && resp.Status != svc.StatusOK {
			err = fmt.Errorf("put: status %q (%s)", resp.Status, resp.Err)
		}
		putDone <- err
	}()
	<-entered

	c2, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c2.Do(&svc.Request{Op: svc.OpScan, Eff: svc.ScanEffect(c2.SID)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != svc.StatusBusy {
		t.Fatalf("scan with member 1 full: status %q (%s), want busy", resp.Status, resp.Err)
	}
	m0 := f.shards[0]
	if held := m0.DebugSnapshot(1).HeldPrepares; held != 0 {
		t.Errorf("member 0 still holds %d prepare(s) after the round answered", held)
	}
	if aborts := m0.Metrics().Aborts.Load(); aborts != 1 {
		t.Errorf("member 0 aborts = %d, want 1", aborts)
	}
	close(release)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2.Close()
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}

// fakeMember speaks just enough of either wire codec to pass for a
// member: a hello with the default geometry, then a StatusPrepared reply
// to every request, under the wrong id. A connection that carried a
// request reports its close on closed.
func fakeMember(t *testing.T) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 16) // more than one test's connections: a close never blocks
	cache := svc.NewEffectCache(64)
	go func() {
		for sid := 0; ; sid++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(sid int) {
				defer conn.Close()
				sc, err := svc.NewServerConn(bufio.NewReader(conn), bufio.NewWriter(conn), cache, nil)
				if err != nil {
					return
				}
				hello := svc.Response{Status: svc.StatusHello, Val: int64(sid),
					Stats: &svc.StatsBody{Sched: "tree", Shards: 8, Keys: 256}}
				if sc.WriteResponse(&hello) != nil || sc.Flush() != nil {
					return
				}
				served := false
				for {
					var req svc.Request
					if err := sc.ReadRequest(&req); err != nil {
						if served {
							ch <- struct{}{}
						}
						return
					}
					served = true
					if sc.WriteResponse(&svc.Response{ID: req.ID + 1000, Status: svc.StatusPrepared}) != nil || sc.Flush() != nil {
						return
					}
				}
			}(sid)
		}
	}()
	return ln.Addr().String(), ch
}

// TestCoordinatorReplyIDMismatch: a round's legs ride the session's own
// upstreams, whose recvLoops pair every reply with a request sent on that
// connection. A member answering under an id nothing was sent under is
// out of step: its upstream is dropped, the round answers error naming
// the reply id, and the legs that did prepare are aborted.
func TestCoordinatorReplyIDMismatch(t *testing.T) {
	s, err := svc.Start(svc.Config{Isolcheck: true})
	if err != nil {
		t.Fatal(err)
	}
	fake, closed := fakeMember(t)
	r, err := New(Config{Shards: []string{s.Addr(), fake}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.Start(ln)
	c, err := svc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(&svc.Request{Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != svc.StatusError || !strings.Contains(resp.Err, "reply id") {
		t.Fatalf("scan against an out-of-step member: status %q (%s), want error naming the reply id", resp.Status, resp.Err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the out-of-step upstream was never dropped")
	}
	if held := s.DebugSnapshot(1).HeldPrepares; held != 0 {
		t.Errorf("member 0 still holds %d prepare(s)", held)
	}
	if aborts := s.Metrics().Aborts.Load(); aborts != 1 {
		t.Errorf("member 0 aborts = %d, want 1", aborts)
	}
	c.Close()
	if err := r.Drain(5 * time.Second); err != nil {
		t.Errorf("router drain: %v", err)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Errorf("member drain: %v", err)
	}
	if v := s.Violations(); len(v) != 0 {
		t.Errorf("isolation violations: %v", v)
	}
}

// pipeline sends reqs on c from a second goroutine, so neither side's
// socket buffers can stall the exchange, and reads every response within
// recvAll's 5 s deadline. Responses must come back in request order.
func pipeline(t *testing.T, c *svc.Client, reqs []svc.Request) []*svc.Response {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		for i := range reqs {
			if err := c.Send(&reqs[i]); err != nil {
				sent <- err
				return
			}
		}
		sent <- c.Flush()
	}()
	resps := recvAll(t, c, len(reqs))
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.ID != reqs[i].ID {
			t.Fatalf("response %d answers id %d, want %d", i, resp.ID, reqs[i].ID)
		}
	}
	return resps
}

// TestRoundOrder: a cross-shard round does not drain the session's
// pipeline, so the ops around a scan reach the members while its round is
// open; each member must still run them in program order. One pipelined
// session repeats put(m0), put(m1), scan, put(m0), get 200 times: every
// scan sees exactly the two puts before it and not the one after it.
func TestRoundOrder(t *testing.T) {
	for _, lane := range []string{"2pc", "serial"} {
		t.Run(lane, func(t *testing.T) {
			f := startFleet(t, 2, lane)
			c, err := svc.DialProto(f.addr, svc.ProtoV2)
			if err != nil {
				t.Fatal(err)
			}
			const iters = 200
			var reqs []svc.Request
			for i := 0; i < iters; i++ {
				base := int64(1000 * (i + 1))
				id := uint64(5 * i)
				reqs = append(reqs,
					svc.Request{ID: id + 1, Op: svc.OpPut, Key: 0, Val: base + 1, Eff: svc.PutEffect(c.Shards, 0, c.SID)},
					svc.Request{ID: id + 2, Op: svc.OpPut, Key: 1, Val: base + 2, Eff: svc.PutEffect(c.Shards, 1, c.SID)},
					svc.Request{ID: id + 3, Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)},
					svc.Request{ID: id + 4, Op: svc.OpPut, Key: 0, Val: base + 500, Eff: svc.PutEffect(c.Shards, 0, c.SID)},
					svc.Request{ID: id + 5, Op: svc.OpGet, Key: 0, Eff: svc.GetEffect(c.Shards, 0, c.SID)})
			}
			resps := pipeline(t, c, reqs)
			for i, resp := range resps {
				if resp.Status != svc.StatusOK {
					t.Fatalf("op %d (%s): status %q (%s)", i, reqs[i].Op, resp.Status, resp.Err)
				}
				base := int64(1000 * (i/5 + 1))
				switch i % 5 {
				case 2:
					if want := 2*base + 3; resp.Val != want {
						t.Fatalf("scan %d read %d, want %d (the puts around it ran out of order)", i/5, resp.Val, want)
					}
				case 4:
					if want := base + 500; resp.Val != want {
						t.Fatalf("get %d read %d, want %d", i/5, resp.Val, want)
					}
				}
			}
			c.Close()
			awaitFleetClean(t, f.router)
			f.drainClean(t)
		})
	}
}

// TestRoundDepth: 600 pipelined gets owned by one member, sent behind a
// scan, all complete. Up to 257 of them reach the member while the scan's
// hold parks them (the router writer's 256-slot queue plus one op sent
// before enqueue blocks); the member's reader must still get to the
// commit frame behind them, which its own 256-slot response queue allows
// with no slot to spare.
func TestRoundDepth(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.DialProto(f.addr, svc.ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Put(0, 9); err != nil || resp.Status != svc.StatusOK {
		t.Fatalf("put: %+v, %v", resp, err)
	}
	reqs := []svc.Request{{ID: 1, Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)}}
	for i := 0; i < 600; i++ {
		reqs = append(reqs, svc.Request{ID: uint64(i + 2), Op: svc.OpGet, Key: 0, Eff: svc.GetEffect(c.Shards, 0, c.SID)})
	}
	for i, resp := range pipeline(t, c, reqs) {
		if resp.Status != svc.StatusOK || resp.Val != 9 {
			t.Fatalf("op %d (%s): status %q val %d (%s)", i, reqs[i].Op, resp.Status, resp.Val, resp.Err)
		}
	}
	c.Close()
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}

// cutProxy relays TCP connections to target; cut closes the connection
// relayed last, as a crash of its member would, while the others and new
// ones keep working.
func cutProxy(t *testing.T, target string) (addr string, cut func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			cl, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				cl.Close()
				continue
			}
			mu.Lock()
			conns = []net.Conn{cl, up}
			mu.Unlock()
			go func() { io.Copy(up, cl); up.Close() }()
			go func() { io.Copy(cl, up); cl.Close() }()
		}
	}()
	return ln.Addr().String(), func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestRoundLostMember: the scan session's connection to member 1 is lost
// while its round waits there. The leg fails through the upstream's
// orphan sweep, the round aborts the hold member 0 already prepared and
// answers error, member 1 reaps its own hold, and the fleet accounts
// cleanly afterwards.
func TestRoundLostMember(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var shards []*svc.Server
	for i := 0; i < 2; i++ {
		cfg := svc.Config{ShardID: i, Isolcheck: true}
		if i == 1 {
			cfg.Hold = func(op string, key int) {
				if op == svc.OpPut {
					entered <- struct{}{}
					<-release
				}
			}
		}
		s, err := svc.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, s)
	}
	proxied, cut := cutProxy(t, shards[1].Addr())
	r, err := New(Config{Shards: []string{shards[0].Addr(), proxied}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.Start(ln)
	f := &fleet{shards: shards, router: r, addr: ln.Addr().String()}

	// A put parked on member 1 keeps the scan's hold there from starting.
	c1, err := svc.Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	putDone := make(chan *svc.Response, 1)
	go func() {
		resp, err := c1.Put(1, 5)
		if err != nil {
			resp = &svc.Response{Status: svc.StatusError, Err: err.Error()}
		}
		putDone <- resp
	}()
	<-entered
	c2, err := svc.DialProto(f.addr, svc.ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(&svc.Request{ID: 1, Op: svc.OpScan, Eff: svc.ScanEffect(c2.SID)}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until member 0 holds its leg and member 1 has admitted its
	// own, then lose the scan session's upstream to member 1, the last
	// connection the proxy relayed.
	for deadline := time.Now().Add(5 * time.Second); shards[0].DebugSnapshot(1).HeldPrepares != 1 ||
		shards[1].Metrics().Prepares.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the scan's legs never reached both members")
		}
		time.Sleep(time.Millisecond)
	}
	cut()
	resp := recvAll(t, c2, 1)[0]
	if resp.Status != svc.StatusError {
		t.Fatalf("scan with member 1 lost: status %q (%s), want error", resp.Status, resp.Err)
	}
	if held := shards[0].DebugSnapshot(1).HeldPrepares; held != 0 {
		t.Errorf("member 0 still holds %d prepare(s) after the round answered", held)
	}
	close(release)
	if resp := <-putDone; resp.Status != svc.StatusOK {
		t.Errorf("parked put: status %q (%s), want ok", resp.Status, resp.Err)
	}
	c1.Close()
	c2.Close()
	awaitFleetClean(t, r)
	f.drainClean(t)
}

// TestRoundConcurrency: two pipelined sessions run scans and conflicting
// cross-shard puts at once. Rounds from both sessions prepare one at a
// time and commit behind each other's holds; nothing may hang or fail,
// and every scan reads a sum some interleaving of the puts can produce.
func TestRoundConcurrency(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	const per = 150
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			c, err := svc.DialProto(f.addr, svc.ProtoV2)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			cross := fmt.Sprintf("writes Root:Shard:[0], writes Root:Shard:[1], writes Root:Session:[%d]", c.SID)
			var reqs []svc.Request
			for i := 0; i < per; i++ {
				id := uint64(i + 1)
				switch i % 3 {
				case 2:
					reqs = append(reqs, svc.Request{ID: id, Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)})
				default:
					reqs = append(reqs, svc.Request{ID: id, Op: svc.OpPut, Key: i % 2, Val: int64(i % 7), Eff: cross})
				}
			}
			for i, resp := range pipeline(t, c, reqs) {
				if resp.Status != svc.StatusOK {
					errs <- fmt.Errorf("session %d op %d (%s): status %q (%s)", w, i, reqs[i].Op, resp.Status, resp.Err)
					return
				}
				if reqs[i].Op == svc.OpScan && (resp.Val < 0 || resp.Val > 12) {
					errs <- fmt.Errorf("session %d scan %d read %d, outside [0,12]", w, i, resp.Val)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}

// TestRouterReservesLegIDs: request ids from 2^63 up name a round's legs
// on the session's upstreams. A client data op using one is rejected and
// a cancel using one is acknowledged unforwarded, so no client entry can
// take a leg's place in the reply table.
func TestRouterReservesLegIDs(t *testing.T) {
	f := startFleet(t, 2, "2pc")
	c, err := svc.DialProto(f.addr, svc.ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	resps := pipeline(t, c, []svc.Request{
		{ID: legIDBase + 1, Op: svc.OpGet, Key: 0, Eff: svc.GetEffect(c.Shards, 0, c.SID)},
		{ID: 7, Op: svc.OpScan, Eff: svc.ScanEffect(c.SID)},
		{ID: legIDBase + 2, Op: svc.OpCancel, Target: 7},
		{ID: 8, Op: svc.OpGet, Key: 1, Eff: svc.GetEffect(c.Shards, 1, c.SID)},
	})
	if resps[0].Status != svc.StatusRejected {
		t.Errorf("get with a leg-range id: status %q, want rejected", resps[0].Status)
	}
	if resps[1].Status != svc.StatusOK || resps[3].Status != svc.StatusOK {
		t.Errorf("scan %q, get %q: want ok", resps[1].Status, resps[3].Status)
	}
	if resps[2].Status != svc.StatusOK || resps[2].Val != 0 {
		t.Errorf("cancel with a leg-range id: status %q landed %d, want ok 0", resps[2].Status, resps[2].Val)
	}
	c.Close()
	awaitFleetClean(t, f.router)
	f.drainClean(t)
}
