package main

import (
	"fmt"
	"time"

	"twe/internal/svc"
)

// phase is one closed-loop stretch of a workload: every client keeps
// `window` requests outstanding on its connection until `dur` has passed
// (or, for the warm-up, until it has sent maxOps requests).
type phase struct {
	name   string
	window int
	dur    time.Duration
	maxOps int // > 0: stop after this many ops (warm-up), dur is the cap
	// watchdog is how long past dur a client waits for replies before it
	// gives the outstanding requests up as failed.
	watchdog time.Duration
	// recs, when set, record the latencies, one recorder per client; the
	// phase fills their windows from firstWin on.
	recs     []*recorder
	firstWin int
}

// span is one traced interval, kept in memory until the run ends.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace,omitempty"` // wire trace id of the op, if any
	StartNS int64  `json:"start_ns"`        // since the harness started
	DurNS   int64  `json:"dur_ns"`
}

// maxOpSpans caps the op spans a client keeps per phase of a traced run,
// so the trace file stays readable and every phase is in it; the counts
// and timings cover every op.
const maxOpSpans = 1 << 13

// inflight is one request awaiting its reply.
type inflight struct {
	id     uint64
	trace  uint64
	op     planOp
	sentAt time.Time
	// wantVal is, for a get on an owned key, the value of the last put
	// this client sent to it before the get (0 if none): what program
	// order says the get must return.
	wantVal int64
	strict  bool
}

// tally is what one client counted over one phase.
type tally struct {
	sent, ok, failed int64
	// stale counts gets on an owned key that returned a value this client
	// did write to that key, but not the latest one: a program-order miss
	// inside one session (see README "Known observations"). It is reported
	// on its own and not folded into failed.
	stale      int64
	reconnects int64
	firstErr   string
}

func (t *tally) add(u tally) {
	t.sent += u.sent
	t.ok += u.ok
	t.failed += u.failed
	t.stale += u.stale
	t.reconnects += u.reconnects
	if t.firstErr == "" {
		t.firstErr = u.firstErr
	}
}

func (t *tally) fail(n int64, format string, args ...any) {
	t.failed += n
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// wireClient is one closed-loop client: one connection at a time, one
// goroutine, requests pipelined up to the phase's window and replies
// consumed in order.
type wireClient struct {
	idx            int
	addr           string
	proto          int
	reconnectEvery int // > 0: drop and re-dial the connection every n ops
	traced         bool
	plan           *servePlan
	owned          [storeKeys]bool

	c        *svc.Client
	nextID   uint64
	connOps  int
	lastPut  [storeKeys]int64 // latest put value sent per key
	effs     effStrings
	ring     []inflight
	head, n  int
	dead     bool
	baseTime time.Time

	// kindRec, when set, additionally records latencies per op kind (the
	// traced run needs the add and scan latencies of the solo phase).
	kindRec *[numOpKinds][]uint32
	spans   []span
}

// effStrings caches the declared-effect strings of one session id.
type effStrings struct {
	put, get [storeShards]string
	add      string
	scan     string
}

func (e *effStrings) reset(sid int) {
	for s := 0; s < storeShards; s++ {
		e.put[s] = svc.PutEffect(storeShards, s, sid)
		e.get[s] = svc.GetEffect(storeShards, s, sid)
	}
	e.add = svc.AddEffect(sid)
	e.scan = svc.ScanEffect(sid)
}

func (e *effStrings) of(op planOp) string {
	switch op.kind {
	case opPut:
		return e.put[op.key%storeShards]
	case opGet:
		return e.get[op.key%storeShards]
	case opAdd:
		return e.add
	default:
		return e.scan
	}
}

func newWireClient(idx int, addr string, proto int, plan *servePlan, base time.Time) *wireClient {
	w := &wireClient{idx: idx, addr: addr, proto: proto, plan: plan, baseTime: base}
	for _, k := range plan.owned {
		w.owned[k] = true
	}
	return w
}

// dial opens the connection, checks the hello's geometry and builds the
// session's effect strings. On v2 the first request naming an effect
// registers its ref, which the warm-up therefore covers.
func (w *wireClient) dial() error {
	c, err := svc.DialProto(w.addr, w.proto)
	if err != nil {
		return err
	}
	if c.Shards != storeShards || c.Keys != storeKeys {
		c.Close()
		return fmt.Errorf("server geometry %d/%d, plans are built for %d/%d", c.Shards, c.Keys, storeShards, storeKeys)
	}
	if w.traced {
		if err := c.EnableTraceIDs(); err != nil {
			c.Close()
			return err
		}
	}
	w.c, w.nextID, w.connOps = c, 0, 0
	w.effs.reset(c.SID)
	return nil
}

func (w *wireClient) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

func (w *wireClient) send(op planOp, t *tally) error {
	w.nextID++
	w.connOps++
	req := svc.Request{ID: w.nextID, Op: opNames[op.kind], Key: op.key, Val: op.val, Eff: w.effs.of(op)}
	if w.traced {
		req.Trace = uint64(w.idx+1)<<40 | uint64(w.plan.n)
	}
	in := inflight{id: w.nextID, trace: req.Trace, op: op}
	switch op.kind {
	case opPut:
		w.lastPut[op.key] = op.val
	case opGet:
		if w.owned[op.key] {
			in.strict, in.wantVal = true, w.lastPut[op.key]
		}
	}
	in.sentAt = time.Now()
	if err := w.c.Send(&req); err != nil {
		return err
	}
	w.ring[(w.head+w.n)%len(w.ring)] = in
	w.n++
	t.sent++
	return nil
}

// check judges one reply against what was sent; it returns whether the
// op counts as answered correctly.
func (w *wireClient) check(in *inflight, resp *svc.Response, t *tally) bool {
	if resp.ID != in.id {
		t.fail(1, "client %d: reply id %d, want %d (replies must come in request order)", w.idx, resp.ID, in.id)
		return false
	}
	if resp.Status != svc.StatusOK {
		t.fail(1, "client %d: %s key %d answered %s %s", w.idx, opNames[in.op.kind], in.op.key, resp.Status, resp.Err)
		return false
	}
	switch in.op.kind {
	case opGet:
		if resp.Val == 0 {
			if in.strict && in.wantVal != 0 {
				t.stale++
			}
			return true
		}
		seq, key, client := decodeVal(resp.Val)
		if key != in.op.key || seq <= 0 {
			t.fail(1, "client %d: get key %d = %d, a value nobody wrote there", w.idx, in.op.key, resp.Val)
			return false
		}
		if in.strict {
			if client != w.idx || seq > w.plan.n {
				t.fail(1, "client %d: get of its own key %d = %d, a value it never wrote", w.idx, in.op.key, resp.Val)
				return false
			}
			if resp.Val != in.wantVal {
				t.stale++
			}
		}
	case opAdd:
		if resp.Val <= 0 {
			t.fail(1, "client %d: add key %d returned total %d", w.idx, in.op.key, resp.Val)
			return false
		}
	case opScan:
		if resp.Val < 0 {
			t.fail(1, "client %d: scan returned %d", w.idx, resp.Val)
			return false
		}
	}
	return true
}

// run drives one phase and returns what it counted. rec may be nil
// (warm-up). Latency is send → reply as the client sees it: encode,
// flush, both socket hops, the server, decode.
func (w *wireClient) run(ph phase, rec *recorder, start time.Time) tally {
	var t tally
	if w.dead {
		return t
	}
	if len(w.ring) < ph.window {
		w.ring = make([]inflight, ph.window)
	}
	w.head, w.n = 0, 0
	stopAt := start.Add(ph.dur)
	giveUp := stopAt.Add(ph.watchdog)
	w.c.RawConn().SetDeadline(giveUp)
	sending := true
	phaseSpan := w.newSpan("phase."+ph.name, 0, 0, start)

	lose := func(err error) tally {
		// The connection is gone or the watchdog fired: everything still
		// outstanding was never answered.
		t.fail(int64(w.n), "client %d: %s phase: %v with %d request(s) outstanding", w.idx, ph.name, err, w.n)
		w.dead = true
		w.close()
		return t
	}

	// quota: may this connection take another request of this phase?
	quota := func() bool {
		return (ph.maxOps == 0 || t.sent < int64(ph.maxOps)) && (w.reconnectEvery == 0 || w.connOps < w.reconnectEvery)
	}
	for {
		sending = sending && time.Now().Before(stopAt) && (ph.maxOps == 0 || t.sent < int64(ph.maxOps))
		if sending {
			for w.n < ph.window && quota() {
				if err := w.send(w.plan.next(), &t); err != nil {
					return lose(err)
				}
			}
			if err := w.c.Flush(); err != nil {
				return lose(err)
			}
		}
		if w.n == 0 {
			if !sending {
				break
			}
			// More to send but nothing outstanding: the connection has
			// used up its reconnect quota. Every reply of the old session
			// is in, so program order across the reconnect holds.
			w.close()
			if err := w.dial(); err != nil {
				return lose(err)
			}
			w.c.RawConn().SetDeadline(giveUp)
			t.reconnects++
			continue
		}
		resp, err := w.c.Recv()
		if err != nil {
			return lose(err)
		}
		now := time.Now()
		in := &w.ring[w.head]
		w.head = (w.head + 1) % len(w.ring)
		w.n--
		if w.check(in, resp, &t) {
			t.ok++
			lat := now.Sub(in.sentAt)
			if rec != nil {
				rec.add(now, lat)
			}
			if w.kindRec != nil {
				w.kindRec[in.op.kind] = append(w.kindRec[in.op.kind], uint32(min(lat, time.Duration(1<<32-1))))
			}
			if w.traced && t.ok <= maxOpSpans {
				w.endSpan(w.newSpan("op."+opNames[in.op.kind], phaseSpan, in.trace, in.sentAt), lat)
			}
		}
	}
	w.endSpan(phaseSpan, time.Since(start))
	w.c.RawConn().SetDeadline(time.Time{})
	return t
}

// spanBase makes span ids unique across clients: client idx owns the ids
// spanBase()+1, spanBase()+2, ... in the order it opened the spans.
func (w *wireClient) spanBase() uint64 { return uint64(w.idx+1) << 32 }

// newSpan opens a span and returns its id, 0 when the run is untraced.
func (w *wireClient) newSpan(name string, parent, trace uint64, at time.Time) uint64 {
	if !w.traced {
		return 0
	}
	id := w.spanBase() + uint64(len(w.spans)) + 1
	w.spans = append(w.spans, span{Name: name, ID: id, Parent: parent, Trace: trace, StartNS: int64(at.Sub(w.baseTime))})
	return id
}

func (w *wireClient) endSpan(id uint64, dur time.Duration) {
	if id != 0 {
		w.spans[id-w.spanBase()-1].DurNS = int64(dur)
	}
}
