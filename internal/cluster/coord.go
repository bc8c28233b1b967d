package cluster

import (
	"fmt"
	"sync"

	"twe/internal/svc"
)

// coordinator orders the cross-shard lanes (DESIGN.md §16): mu admits one
// round at a time into its prepare phase on the two-phase lane, and one
// whole op at a time on the serial lane.
//
// The two-phase lane runs each round on the client session's own
// upstreams, asynchronously to the session's reader:
//
//	prepare every member at once → every leg acks StatusPrepared
//	→ commit every member at once → combine outcomes
//
// A prepared ack means the hold's body started, i.e. its effects are
// held on that member: every conflicting op admitted before the hold has
// finished, every one admitted after waits for release. By the time any
// commit executes, holds exist on *all* touched members, so the
// committed bodies read/write a consistent cut. On any prepare failure
// every prepared hold is aborted — release on abort is the shard-side
// guarantee (svc prepare holds resolve on abort, expiry, or disconnect).
//
// mu is taken by the reader before the prepares go out and released once
// every leg has answered its prepare, after the commits (or aborts) are
// on the wire. That is the lane's deadlock-freedom argument: a round
// sends all its prepares at once, so its legs acquire their holds in no
// fixed member order, and two rounds preparing together could each hold
// one member while waiting on the other; with one round preparing at a
// time no hold of a preparing round can wait on another preparing
// round's, and a round past its prepare phase only waits on commits
// already sent. Program order per session rides on the member: a later
// op the reader forwards while a round is open writes Session:[u], which
// the hold's declared Session:[u]:* covers, so the member's Seq chain
// admits it after the hold.
//
// The serial lane instead quiesces the router (flow write-lock): no
// forwarded op is outstanding anywhere while the pieces run on the
// coordinator's own connections, trading all concurrency for protocol
// simplicity.
type coordinator struct {
	r  *Router
	mu sync.Mutex

	conns  []*svc.Client // serial lane only: per member, protocol v1, lazily dialed
	nextID uint64
}

func newCoordinator(r *Router) *coordinator {
	return &coordinator{r: r, conns: make([]*svc.Client, r.n)}
}

func (co *coordinator) conn(k int) (*svc.Client, error) {
	if c := co.conns[k]; c != nil {
		return c, nil
	}
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

// crossPlan checks one cross-shard or global data op and returns the
// member owning its key and whether it is a scan (whose pieces sum over
// every member), or the client's answer when the op cannot run.
func (r *Router) crossPlan(req *svc.Request, memo *routeMemo) (owner int, scanAll bool, reject *svc.Response) {
	owner = OwnerOfKey(req.Key, r.storeShards, r.n)
	scanAll = req.Op == svc.OpScan
	if !scanAll && memo.dec.Mask&(1<<uint(owner)) == 0 {
		// A non-scan op's body runs only on its key's owner member. If the
		// declared effect touches several members but none of them is the
		// owner, every leg would be a pure hold: the op would execute
		// nowhere yet report StatusOK — and no member's coverage check
		// would fire, because the owner (the one whose Covers would
		// reject) never sees the request. A single node rejects exactly
		// this shape via Covers; reject it here for the same reason.
		return 0, false, &svc.Response{Status: svc.StatusRejected,
			Err: fmt.Sprintf("declared effect does not cover key %d's member %d", req.Key, owner)}
	}
	return owner, scanAll, nil
}

// leg is one member's part in a cross-shard op.
type leg struct {
	shard int
	eff   string        // the declared effect in the leg connection's session namespace
	resp  *svc.Response // the reply to the current phase; a lost leg reads StatusError

	// Serial lane: the coordinator connection and the piece's id.
	c  *svc.Client
	id uint64

	// Two-phase lane: the round, the session upstream, and the
	// prepare's id that the commit or abort targets.
	rd     *round
	u      *upConn
	prepID uint64
}

// combine folds a phase's data outcomes into the client's answer: a scan
// sums every member's value, other ops take the owner's. The first
// failed leg in member order (shed on deadline, dyneff error, lost
// member, ...) decides a failed answer.
func (r *Router) combine(legs []*leg, owner int, scanAll bool) *svc.Response {
	out := &svc.Response{Status: svc.StatusOK}
	var sum, ownerVal int64
	for _, l := range legs {
		switch {
		case l.resp.Status == svc.StatusOK:
			r.perShard[l.shard].Srv.Add(1)
			sum += l.resp.Val
			if l.shard == owner {
				ownerVal = l.resp.Val
			}
		case out.Status == svc.StatusOK:
			out = &svc.Response{Status: l.resp.Status, Err: l.resp.Err}
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

// round phases.
const (
	phasePrepare = iota
	phaseCommit
	phaseAbort
)

// round is one cross-shard op in flight on the two-phase lane. The
// session reader starts it and moves on; each leg's reply reaches it
// through the upstream's recvLoop, and whichever goroutine delivers the
// last reply of a phase moves the round on. client is the answer the
// session writer owes, settled exactly once when the round ends.
type round struct {
	s       *rsession
	client  *proxyEntry
	owner   int
	scanAll bool

	mu      sync.Mutex
	phase   int
	legs    []*leg        // the legs the current phase waits on
	waiting int           // legs whose reply to the current phase is owed
	refusal *svc.Response // an aborting round's answer
}

// startRound runs the two-phase lane for one cross-shard or global op
// without waiting for it: it takes the round order, buffers every prepare
// on the session's own upstreams, and queues the client's answer behind
// the round. The prepares go out with the forwards around them, at the
// reader's next flush; every point where the reader could wait flushes
// first, so a round holding the order never waits on its own prepares
// for long. Later ops keep flowing; each member admits them behind the
// round's hold.
func (s *rsession) startRound(req *svc.Request, memo *routeMemo, owner int, scanAll bool) {
	co := s.r.coord
	if !co.mu.TryLock() {
		// Another round is preparing; waiting for it must not hold back
		// this session's buffered forwards.
		s.flushDirty()
		co.mu.Lock()
	}
	rd := &round{s: s, owner: owner, scanAll: scanAll,
		client: &proxyEntry{id: req.ID, shard: -1, done: make(chan struct{})}}
	for k := 0; k < s.r.n; k++ {
		if memo.dec.Mask&(1<<uint(k)) == 0 {
			continue
		}
		var fail *svc.Response
		u, err := s.upstream(k)
		if err != nil {
			fail = &svc.Response{Status: svc.StatusError, Err: fmt.Sprintf("member %d unavailable: %v", k, err)}
		} else if eff, err := memo.rewrite(k, s.sid, u.c.SID); err != nil {
			fail = &svc.Response{Status: svc.StatusRejected, Err: err.Error()}
		} else {
			rd.legs = append(rd.legs, &leg{shard: k, eff: eff, rd: rd, u: u})
			continue
		}
		// Nothing has been sent yet.
		co.mu.Unlock()
		rd.finish(fail)
		s.enqueue(rd.client)
		return
	}
	rd.waiting = len(rd.legs)
	for _, l := range rd.legs {
		// The sub op (the body a commit will run) goes to the owner — or
		// to every member for a scan, whose pieces sum; the rest hold pure.
		sub := ""
		if scanAll || l.shard == owner {
			sub = req.Op
		}
		s.r.perShard[l.shard].Prep.Add(1)
		s.sendLeg(l, &svc.Request{Op: svc.OpPrepare, Sub: sub, Key: req.Key, Val: req.Val, Eff: l.eff}, false)
	}
	s.enqueue(rd.client)
}

// reply records one leg's reply to the current phase; the last one moves
// the round on.
func (rd *round) reply(l *leg, resp *svc.Response) {
	rd.mu.Lock()
	l.resp = resp
	rd.waiting--
	last := rd.waiting == 0
	phase := rd.phase
	rd.mu.Unlock()
	if !last {
		return
	}
	switch phase {
	case phasePrepare:
		rd.decide()
	case phaseCommit:
		rd.finish(rd.s.r.combine(rd.legs, rd.owner, rd.scanAll))
	default:
		rd.finish(rd.refusal)
	}
}

// decide ends the prepare phase: commit every leg if all of them hold,
// otherwise abort the ones that do and relay the first refusal. The
// commits or aborts are on the wire before the round order is released,
// so no later round's prepare can overtake them on any upstream.
func (rd *round) decide() {
	s := rd.s
	var prepared []*leg
	var refusal *svc.Response
	for _, l := range rd.legs {
		if l.resp.Status == svc.StatusPrepared {
			prepared = append(prepared, l)
		} else if refusal == nil {
			// The member refused (busy/rejected), the hold resolved before
			// starting, or the leg was lost.
			refusal = &svc.Response{Status: l.resp.Status, Err: l.resp.Err}
		}
	}
	op := svc.OpCommit
	rd.mu.Lock()
	if refusal != nil {
		op, rd.phase, rd.refusal, rd.legs = svc.OpAbort, phaseAbort, refusal, prepared
	} else {
		rd.phase = phaseCommit
	}
	legs := rd.legs
	rd.waiting = len(legs)
	rd.mu.Unlock()
	for _, l := range legs {
		s.sendLeg(l, &svc.Request{Op: op, Target: l.prepID}, true)
	}
	s.r.coord.mu.Unlock()
	if len(legs) == 0 {
		rd.finish(refusal) // nothing held anywhere
	}
}

// finish settles the client's answer.
func (rd *round) finish(resp *svc.Response) {
	resp.ID = rd.client.id
	rd.s.r.classify(resp.Status)
	rd.client.resp = resp
	close(rd.client.done)
}

// runSerial is the stop-the-world fallback lane: quiesce every forwarded
// op (flow write-lock), then run the pieces as plain data ops on the
// coordinator connections. Nothing else is in flight anywhere in the
// fleet while they run, which is the whole atomicity argument. The
// caller (the session reader) has already barriered its own outstanding
// ops, so program order per client holds.
func (co *coordinator) runSerial(clientSid int, req *svc.Request, memo *routeMemo, owner int, scanAll bool) *svc.Response {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.r.flow.Lock()
	defer co.r.flow.Unlock()
	mask := memo.dec.Mask
	if !scanAll {
		mask = 1 << uint(owner) // nothing to run elsewhere, and nothing to hold: the world is stopped
	}
	var legs []*leg
	for k := 0; k < co.r.n; k++ {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		c, err := co.conn(k)
		if err != nil {
			return &svc.Response{Status: svc.StatusError, Err: fmt.Sprintf("member %d unavailable: %v", k, err)}
		}
		eff, err := memo.rewrite(k, clientSid, c.SID)
		if err != nil {
			return &svc.Response{Status: svc.StatusRejected, Err: err.Error()}
		}
		legs = append(legs, &leg{shard: k, c: c, eff: eff})
	}
	// Send every piece, then read every reply: one round trip however
	// many members the op spans. A reply whose id is not its request's
	// means the connection is out of step, and is treated like a
	// transport error: the connection is dropped, so no stale reply can
	// reach a later op.
	for _, l := range legs {
		co.nextID++
		l.id = co.nextID
		co.r.perShard[l.shard].Fwd.Add(1)
		err := l.c.Send(&svc.Request{ID: l.id, Op: req.Op, Key: req.Key, Val: req.Val, Eff: l.eff})
		if err == nil {
			err = l.c.Flush()
		}
		if err != nil {
			l.resp = lostReply(l.shard, err)
		}
	}
	for _, l := range legs {
		if l.resp == nil { // sent
			resp, err := l.c.Recv()
			if err == nil && resp.ID != l.id {
				err = fmt.Errorf("reply id %d to request %d", resp.ID, l.id)
			}
			if err == nil {
				l.resp = resp
				continue
			}
			l.resp = lostReply(l.shard, err)
		}
		co.dropConn(l.shard)
	}
	return co.r.combine(legs, owner, scanAll)
}

// lostReply answers a request whose member connection failed.
func lostReply(k int, err error) *svc.Response {
	return &svc.Response{Status: svc.StatusError, Err: fmt.Sprintf("member %d connection lost: %v", k, err)}
}
