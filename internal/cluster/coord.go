package cluster

import (
	"fmt"
	"sync"

	"twe/internal/svc"
)

// coordinator runs the cross-shard lanes (DESIGN.md §16). Both lanes are
// fully serialized behind mu — one cross-shard op in the system at a
// time. That is the two-phase lane's deadlock-freedom argument: a round
// sends all its prepares at once, so its legs acquire their holds in no
// fixed member order, and two concurrent rounds could each hold one
// member while waiting on the other; with one round at a time no hold
// of a round can wait on another round's. Single-shard traffic keeps
// flowing throughout (2pc lane); the holds themselves provide the
// atomicity:
//
//	prepare every member at once → ack'd StatusPrepared per member
//	→ commit every member at once → combine outcomes
//
// A prepared ack means the hold's body started, i.e. its effects are
// held on that member: every conflicting single-shard op admitted before
// the hold has finished, every one admitted after waits for release. By
// the time any commit executes, holds exist on *all* touched members, so
// the committed bodies read/write a consistent cut. On any prepare
// failure every prepared hold is aborted — release on abort is the
// shard-side guarantee (svc prepare holds resolve on abort, expiry, or
// disconnect).
//
// The serial lane instead quiesces the router (flow write-lock): no
// forwarded op is outstanding anywhere while the pieces run, trading
// all concurrency for protocol simplicity.
type coordinator struct {
	r  *Router
	mu sync.Mutex

	conns  []*svc.Client // per member, protocol v1, lazily dialed
	nextID uint64
}

func newCoordinator(r *Router) *coordinator {
	return &coordinator{r: r, conns: make([]*svc.Client, r.n)}
}

func (co *coordinator) conn(k int) (*svc.Client, error) {
	if c := co.conns[k]; c != nil {
		return c, nil
	}
	// The two-phase ops are v1-only wire ops; the coordinator keeps one
	// dedicated JSON connection per member.
	c, err := svc.DialProto(co.r.cfg.Shards[k], svc.ProtoV1)
	if err != nil {
		return nil, err
	}
	co.conns[k] = c
	return c, nil
}

// dropConn discards member k's coordinator connection after a transport
// error; the next round re-dials.
func (co *coordinator) dropConn(k int) {
	if c := co.conns[k]; c != nil {
		c.Close()
		co.conns[k] = nil
	}
}

func (co *coordinator) close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for k, c := range co.conns {
		if c != nil {
			c.Close()
			co.conns[k] = nil
		}
	}
}

// crossOp admits one cross-shard or global data op over every member in
// the decision's mask. The response carries the combined outcome: a
// scan's value is the sum of every member's piece; other ops take the
// owner member's value. The caller (the session reader) has already
// barriered its own outstanding single-shard ops, so program order per
// client holds.
func (r *Router) crossOp(clientSid int, req *svc.Request, memo *routeMemo) *svc.Response {
	owner := OwnerOfKey(req.Key, r.storeShards, r.n)
	scanAll := req.Op == svc.OpScan
	mask := memo.dec.Mask
	if !scanAll && mask&(1<<uint(owner)) == 0 {
		// A non-scan op's body runs only on its key's owner member. If the
		// declared effect touches several members but none of them is the
		// owner, every leg would be a pure hold: the op would execute
		// nowhere yet report StatusOK — and no member's coverage check
		// would fire, because the owner (the one whose Covers would
		// reject) never sees the request. A single node rejects exactly
		// this shape via Covers; reject it here for the same reason.
		return &svc.Response{Status: svc.StatusRejected,
			Err: fmt.Sprintf("declared effect does not cover key %d's member %d", req.Key, owner)}
	}
	if r.cfg.CrossLane == "serial" {
		return r.coord.runSerial(clientSid, req, memo, owner, scanAll)
	}
	return r.coord.runTwoPhase(clientSid, req, memo, owner, scanAll)
}

// leg is one member's part in a coordinator round.
type leg struct {
	shard  int
	c      *svc.Client
	eff    string // the declared effect in c's session namespace
	prepID uint64 // the leg's prepare (two-phase lane)

	// The current phase's request and its outcome (see exchange).
	id   uint64
	resp *svc.Response
	err  error
}

// open dials (or reuses) the coordinator connection of every member in
// mask and rewrites the declared effect into each one's session, with
// the rewrite memoized on the session's route memo. A failure returns
// the client's answer; nothing has been sent yet.
func (co *coordinator) open(clientSid int, memo *routeMemo, mask uint64) ([]leg, *svc.Response) {
	var legs []leg
	for k := 0; k < co.r.n; k++ {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		c, err := co.conn(k)
		if err != nil {
			return nil, &svc.Response{Status: svc.StatusError, Err: fmt.Sprintf("member %d unavailable: %v", k, err)}
		}
		eff, err := memo.rewrite(k, clientSid, c.SID)
		if err != nil {
			return nil, &svc.Response{Status: svc.StatusRejected, Err: err.Error()}
		}
		legs = append(legs, leg{shard: k, c: c, eff: eff})
	}
	return legs, nil
}

// exchange runs one phase of a round: it sends every leg's request
// (built by mk) and flushes it, then reads every reply, so the phase
// costs one round trip however many members it spans. Each leg ends
// with resp or err set. A reply whose id is not its request's means the
// connection is out of step, and is treated like a transport error: the
// connection is dropped, so no stale reply can reach a later round and
// every reply still owed on a live connection has been read.
func (co *coordinator) exchange(legs []leg, mk func(l *leg) svc.Request) {
	for i := range legs {
		l := &legs[i]
		co.nextID++
		req := mk(l)
		req.ID, l.id, l.resp = co.nextID, co.nextID, nil
		if l.err = l.c.Send(&req); l.err == nil {
			l.err = l.c.Flush()
		}
	}
	for i := range legs {
		l := &legs[i]
		if l.err == nil {
			if l.resp, l.err = l.c.Recv(); l.err == nil && l.resp.ID != l.id {
				l.err = fmt.Errorf("reply id %d to request %d", l.resp.ID, l.id)
			}
		}
		if l.err != nil {
			co.dropConn(l.shard)
		}
	}
}

// failure is the client's answer for a leg that did not succeed: its
// transport failure, or the member's own verdict.
func (l *leg) failure(what string) *svc.Response {
	if l.err != nil {
		return &svc.Response{Status: svc.StatusError, Err: fmt.Sprintf("member %d %s failed: %v", l.shard, what, l.err)}
	}
	return &svc.Response{Status: l.resp.Status, Err: l.resp.Err}
}

// combine folds a phase's data outcomes into the client's answer: a
// scan sums every member's value, other ops take the owner's. The first
// failed leg in member order (shed on deadline, dyneff error, lost
// member, ...) decides a failed answer.
func (co *coordinator) combine(legs []leg, owner int, scanAll bool, what string) *svc.Response {
	out := &svc.Response{Status: svc.StatusOK}
	var sum, ownerVal int64
	for i := range legs {
		l := &legs[i]
		switch {
		case l.err == nil && l.resp.Status == svc.StatusOK:
			co.r.perShard[l.shard].Srv.Add(1)
			sum += l.resp.Val
			if l.shard == owner {
				ownerVal = l.resp.Val
			}
		case out.Status == svc.StatusOK:
			out = l.failure(what)
		}
	}
	if out.Status == svc.StatusOK {
		if scanAll {
			out.Val = sum
		} else {
			out.Val = ownerVal
		}
	}
	return out
}

func (co *coordinator) runTwoPhase(clientSid int, req *svc.Request, memo *routeMemo, owner int, scanAll bool) *svc.Response {
	co.mu.Lock()
	defer co.mu.Unlock()
	legs, fail := co.open(clientSid, memo, memo.dec.Mask)
	if fail != nil {
		return fail
	}
	if len(legs) == 0 {
		return &svc.Response{Status: svc.StatusRejected, Err: "cross-shard op touches no member"}
	}
	// Phase 1: prepare a hold on every touched member at once. The sub op
	// (the body a commit will run) goes to the owner — or to every member
	// for a scan, whose pieces sum; the rest hold pure.
	co.exchange(legs, func(l *leg) svc.Request {
		sub := ""
		if scanAll || l.shard == owner {
			sub = req.Op
		}
		co.r.perShard[l.shard].Prep.Add(1)
		return svc.Request{Op: svc.OpPrepare, Sub: sub, Key: req.Key, Val: req.Val, Eff: l.eff}
	})
	var refused *svc.Response
	prepared := make([]leg, 0, len(legs))
	for i := range legs {
		l := &legs[i]
		if l.err == nil && l.resp.Status == svc.StatusPrepared {
			l.prepID = l.id
			prepared = append(prepared, *l)
		} else if refused == nil {
			// The member refused (busy/rejected), the hold resolved before
			// starting, or the leg was lost; relay the first such verdict
			// after releasing the rest.
			refused = l.failure("prepare")
		}
	}
	if refused != nil {
		co.exchange(prepared, func(l *leg) svc.Request {
			return svc.Request{Op: svc.OpAbort, Target: l.prepID}
		})
		return refused
	}
	// Phase 2: every member holds; commit them all and combine outcomes.
	co.exchange(legs, func(l *leg) svc.Request {
		return svc.Request{Op: svc.OpCommit, Target: l.prepID}
	})
	return co.combine(legs, owner, scanAll, "commit")
}

// runSerial is the stop-the-world fallback lane: quiesce every forwarded
// op (flow write-lock), then run the pieces as plain data ops on the
// coordinator connections. Nothing else is in flight anywhere in the
// fleet while they run, which is the whole atomicity argument.
func (co *coordinator) runSerial(clientSid int, req *svc.Request, memo *routeMemo, owner int, scanAll bool) *svc.Response {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.r.flow.Lock()
	defer co.r.flow.Unlock()
	mask := memo.dec.Mask
	if !scanAll {
		mask = 1 << uint(owner) // nothing to run elsewhere, and nothing to hold: the world is stopped
	}
	legs, fail := co.open(clientSid, memo, mask)
	if fail != nil {
		return fail
	}
	co.exchange(legs, func(l *leg) svc.Request {
		co.r.perShard[l.shard].Fwd.Add(1)
		return svc.Request{Op: req.Op, Key: req.Key, Val: req.Val, Eff: l.eff}
	})
	return co.combine(legs, owner, scanAll, "piece")
}
