package svc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twe/internal/core"
	"twe/internal/dyneff"
	"twe/internal/effect"
	"twe/internal/obs"
)

// respQueueCap bounds the reader→writer response queue. When a client
// pipelines faster than responses resolve, the reader eventually blocks
// on the queue and TCP backpressure does the rest; the writer always
// drains independently, so this cannot deadlock.
//
// One case leans on the exact size. The cluster router sends a session's
// later ops behind a prepared hold before it sends the commit that
// releases them, and at most 257 of them (its writer queue,
// cluster.writerQueueCap, plus one op sent before that queue blocks).
// The writer here waits on the first; this queue holds the other 256
// with no slot to spare, so the reader still reads the commit frame.
// Shrinking either queue breaks that (DESIGN.md §16).
const respQueueCap = 256

// pending is one response owed to the client, either an already-decided
// immediate response (hello, busy, rejected, cancel/stats acks) or an
// admitted task's future to resolve. The writer consumes pendings in
// admission order, which is what gives pipelined clients in-order
// responses.
type pending struct {
	id     uint64
	fut    *core.Future
	resp   *Response
	arrive time.Time

	// prepE is set on a prepare op's pending: the writer answers
	// StatusPrepared the moment the hold body starts (its effects are
	// held), or the hold's terminal status if it resolved without ever
	// starting. holdE is set on the commit/abort (or reader-exit reaper)
	// pending that resolves the hold itself; silent suppresses the
	// response write for reaper pendings, whose accounting must still
	// happen after a disconnect.
	prepE  *prepEntry
	holdE  *prepEntry
	silent bool

	// Request-trace stamps (DESIGN.md §14), carried from the reader only
	// when the server runs with Config.ReqTrace; op doubles as the "emit
	// spans for this pending" flag (control ops and the hello leave it
	// empty). Batch inner ops carry op/trace but no recv/decode stamps —
	// those phases are per-frame, not per-inner-op.
	op     string
	trace  uint64
	recvTS int64
	recvNS int64
	decNS  int64
}

// session is one client connection: a reader goroutine that decodes,
// validates, and admits requests, and a writer goroutine that resolves
// futures in order and encodes responses. Each connection is a TWE
// "session": every data op it submits carries a writes Session:[sid]
// effect, so one connection's ops execute in program order (the
// schedulers admit conflicting tasks in submission order) while ops from
// different connections interleave wherever their effects permit —
// task isolation extends across the network boundary.
//
// The first 4 bytes of every connection are the protocol preamble
// (wirev2.go); the session negotiates the codec before the hello goes
// out, and everything after runs the same admission state machine over
// whichever framing the client chose.
type session struct {
	id    int
	srv   *Server
	conn  net.Conn
	q     chan pending
	codec serverCodec // set during negotiation, before reader/writer start

	// v2c mirrors codec when the connection negotiated v2; atomic so the
	// /debug/twe snapshot can read effect-table occupancy from another
	// goroutine while the session is live.
	v2c atomic.Pointer[v2ServerCodec]

	mu   sync.Mutex
	pend map[uint64]*core.Future // in-flight, by request id (cancel target lookup)
	prep map[uint64]*prepEntry   // prepared holds awaiting commit/abort, by prepare id

	// ops counts store-visible served ops. It is written only inside
	// this session's task bodies — serialized by the Session:[sid]
	// effect, never concurrently — and read by Server.sessionDone, after
	// the writer has resolved every future the session submitted.
	ops int64

	// required holds the session's required effect sets, built on first
	// use by buildTask; only the reader goroutine touches it.
	required requiredSets
}

// requiredSets memoizes one session's required effect sets: put and get
// per shard, add, and scan. A set is immutable once built, so one
// instance serves every op; a zero Set marks an entry not built yet.
type requiredSets struct {
	put, get  []effect.Set
	add, scan effect.Set
}

// memoSet returns *slot, building it with mk on first use.
func memoSet(slot *effect.Set, mk func() effect.Set) effect.Set {
	if slot.Len() == 0 {
		*slot = mk()
	}
	return *slot
}

func newSession(srv *Server, id int, conn net.Conn) *session {
	shards := len(srv.st.shards)
	return &session{id: id, srv: srv, conn: conn, q: make(chan pending, respQueueCap),
		pend: make(map[uint64]*core.Future), prep: make(map[uint64]*prepEntry),
		required: requiredSets{put: make([]effect.Set, shards), get: make([]effect.Set, shards)}}
}

// prepEntry is one two-phase cross-shard hold (DESIGN.md §16): admitted
// like any data op under its declared effect, its body closes started
// once the effects are held, then parks on gate until the reader relays
// a commit (true) or abort (false), bounded by Config.PrepareHold.
// gate has capacity 1 and a single sender — the reader goroutine, which
// removes the entry from s.prep in the same step, so exactly one signal
// is ever sent. The resolution cache (accounted/v/err) belongs to the
// writer goroutine alone: queue FIFO order serializes every pending
// that touches the entry.
type prepEntry struct {
	id      uint64 // prepare request id (s.pend/s.prep key)
	gate    chan bool
	started chan struct{}
	done    chan struct{} // closed by OnDone when the future completes
	fut     *core.Future
	arrive  time.Time

	accounted bool
	v         any
	err       error
}

func (s *session) start() { go s.main() }

// main negotiates the codec, then runs the reader/writer pair to
// completion before closing the connection.
func (s *session) main() {
	defer s.srv.sessionDone(s)
	defer s.conn.Close()
	br := bufio.NewReaderSize(s.conn, 32<<10)
	bw := bufio.NewWriterSize(s.conn, 32<<10)
	proto, err := readPreamble(br)
	if err != nil {
		// No valid preamble, nothing admitted: just drop the connection.
		s.srv.m.ProtoErrors.Add(1)
		return
	}
	switch proto {
	case ProtoV2:
		s.srv.m.V2Conns.Add(1)
		s.srv.m.V2Live.Add(1)
		defer s.srv.m.V2Live.Add(-1)
		v2c := newV2ServerCodec(br, bw, s.srv.cache, &s.srv.m, s.srv.reqTracer())
		s.v2c.Store(v2c)
		s.codec = v2c
	default:
		s.srv.m.V1Conns.Add(1)
		s.srv.m.V1Live.Add(1)
		defer s.srv.m.V1Live.Add(-1)
		s.codec = &v1ServerCodec{br: br, bw: bw, tr: s.srv.reqTracer()}
	}
	geo := &StatsBody{Sched: s.srv.schedName, Shards: s.srv.cfg.Shards, Keys: s.srv.cfg.Keys}
	s.q <- pending{resp: &Response{Status: StatusHello, Val: int64(s.id), Stats: geo}}
	writerDone := make(chan struct{})
	go func() { defer close(writerDone); s.writer() }()
	s.reader()
	<-writerDone
}

func (s *session) reader() {
	defer close(s.q)
	defer s.reapPrepares()
	// One Request serves the whole connection: ReadRequest takes it through
	// an interface, so a per-iteration variable would be a heap object per
	// request. No handler keeps a pointer to it past handle.
	var req Request
	for {
		req = Request{}
		if err := s.codec.ReadRequest(&req); err != nil {
			var ne net.Error
			if s.srv.draining.Load() && errors.As(err, &ne) && ne.Timeout() {
				// Graceful drain: the server poked our read deadline.
				// Everything already admitted resolves and flushes;
				// in-flight futures are left to finish, not cancelled.
				return
			}
			// Disconnect (or protocol error): release every effect the
			// client still holds by cancelling its in-flight futures —
			// tasks that have not started never will, running bodies see
			// the cancel at their next check. The writer drains them all.
			if n := s.abort(); n > 0 {
				s.srv.m.Disconnects.Add(1)
			}
			return
		}
		s.handle(&req)
	}
}

func (s *session) handle(req *Request) {
	switch req.Op {
	case OpBatch:
		s.handleBatch(req)
	case OpCancel, OpStats:
		s.q <- pending{resp: s.controlResponse(req)}
	case OpPrepare:
		s.handlePrepare(req)
	case OpCommit, OpAbort:
		s.finishPrepare(req)
	default:
		s.handleData(req)
	}
}

// controlResponse serves a cancel or stats op and returns its response;
// control ops never enter the runtime, whether they arrive standalone or
// ride inside a batch frame.
func (s *session) controlResponse(req *Request) *Response {
	s.srv.m.ControlOps.Add(1)
	if req.Op == OpCancel {
		s.mu.Lock()
		fut := s.pend[req.Target]
		s.mu.Unlock()
		var landed int64
		if fut != nil && fut.Cancel(core.ErrCancelled) {
			landed = 1 // cancelled before it started; effects released unused
		}
		return &Response{ID: req.ID, Status: StatusOK, Val: landed}
	}
	st := s.srv.Stats()
	return &Response{ID: req.ID, Status: StatusOK, Stats: &st}
}

// admitData is the admission state machine (DESIGN.md §11): parse the
// declared effect (memoized) → check it covers the op's required effect
// → take an in-flight slot or refuse with busy. It returns either the
// submission to hand to the runtime (in-flight slot taken, configured
// deadline attached) or the immediate refusal response. No server lock
// is held across any of it.
func (s *session) admitData(req *Request) (core.Submission, *Response) {
	m := &s.srv.m
	m.Requests.Add(1)
	reject := func(format string, args ...any) *Response {
		m.Rejected.Add(1)
		return &Response{ID: req.ID, Status: StatusRejected, Err: fmt.Sprintf(format, args...)}
	}
	if req.wireErr != nil {
		return core.Submission{}, reject("%v", req.wireErr)
	}
	// v2 requests arrive with the declared effect already resolved
	// through the connection's intern table; only the v1 path parses the
	// textual summary (memoized in EffectCache).
	declared := req.resolved
	if !req.hasResolved {
		var err error
		declared, err = s.srv.cache.Lookup(req.Eff)
		if err != nil {
			return core.Submission{}, reject("bad effect: %v", err)
		}
	}
	task, required, err := s.buildTask(req)
	if err != nil {
		return core.Submission{}, reject("%v", err)
	}
	if !declared.Covers(required) {
		return core.Submission{}, reject("declared effect %q does not cover required %q", declared, required)
	}
	// The wire effect is the admission key: the task runs under what the
	// client declared, exactly as §2.1 tasks run under their summaries.
	task.Eff = declared
	if cur := m.IncInflight(); s.srv.cfg.MaxInflight > 0 && cur > int64(s.srv.cfg.MaxInflight) {
		m.DecInflight()
		m.Busy.Add(1)
		return core.Submission{}, &Response{ID: req.ID, Status: StatusBusy}
	}
	return core.Submission{Task: task, Deadline: s.srv.cfg.Deadline}, nil
}

// stamp copies the request's trace identity and codec phase stamps onto
// the pending; a no-op (leaving p.op empty, so the writer emits nothing)
// unless request tracing is on.
func (s *session) stamp(p *pending, req *Request, frameStamps bool) {
	if !s.srv.cfg.ReqTrace {
		return
	}
	p.op = req.Op
	p.trace = req.Trace
	if frameStamps {
		p.recvTS, p.recvNS, p.decNS = req.recvTS, req.recvNS, req.decNS
	}
}

// handleData admits and submits one standalone data op.
func (s *session) handleData(req *Request) {
	sub, resp := s.admitData(req)
	if resp != nil {
		p := pending{resp: resp}
		s.stamp(&p, req, true)
		s.q <- p
		return
	}
	var fut *core.Future
	if sub.Deadline > 0 {
		fut = s.srv.rt.Submit(sub.Task, core.WithDeadline(sub.Deadline))
	} else {
		fut = s.srv.rt.Submit(sub.Task)
	}
	s.mu.Lock()
	s.pend[req.ID] = fut
	s.mu.Unlock()
	p := pending{id: req.ID, fut: fut, arrive: time.Now()}
	s.stamp(&p, req, true)
	s.q <- p
}

// handleBatch admits one batch frame (DESIGN.md §12): every inner data
// op runs the same admission state machine as a standalone frame, but
// all admitted ops enter the runtime through a single SubmitBatch call,
// so the scheduler sees the group at once and can amortize its descent.
// Responses are pipelined per inner request in batch order — observable
// semantics are exactly those of sending the inner frames back to back.
func (s *session) handleBatch(req *Request) {
	m := &s.srv.m
	m.Batches.Add(1)
	m.BatchedOps.Add(int64(len(req.Batch)))
	// resps[i] is the immediate response for inner request i, or nil when
	// it was admitted; subIdx[i] then indexes its submission.
	resps := make([]*Response, len(req.Batch))
	subIdx := make([]int, len(req.Batch))
	subs := make([]core.Submission, 0, len(req.Batch))
	for i := range req.Batch {
		r := &req.Batch[i]
		subIdx[i] = -1
		switch r.Op {
		case OpBatch:
			m.Requests.Add(1)
			m.Rejected.Add(1)
			resps[i] = &Response{ID: r.ID, Status: StatusRejected, Err: "nested batch"}
		case OpCancel, OpStats:
			resps[i] = s.controlResponse(r)
		default:
			sub, resp := s.admitData(r)
			if resp != nil {
				resps[i] = resp
				continue
			}
			subIdx[i] = len(subs)
			subs = append(subs, sub)
		}
	}
	futs := s.srv.rt.SubmitBatch(subs)
	// Register every future before the writer can resolve (and delete)
	// any of them, then enqueue responses in batch order.
	s.mu.Lock()
	for i := range req.Batch {
		if j := subIdx[i]; j >= 0 {
			s.pend[req.Batch[i].ID] = futs[j]
		}
	}
	s.mu.Unlock()
	now := time.Now()
	for i := range req.Batch {
		var p pending
		if j := subIdx[i]; j >= 0 {
			p = pending{id: req.Batch[i].ID, fut: futs[j], arrive: now}
		} else {
			p = pending{resp: resps[i]}
		}
		if req.Batch[i].Op != OpCancel && req.Batch[i].Op != OpStats {
			s.stamp(&p, &req.Batch[i], false)
		}
		s.q <- p
	}
}

// handlePrepare admits a two-phase hold (DESIGN.md §16): the same
// admission state machine as a data op — declared effect parsed and
// checked, in-flight slot taken — but the task body, once started,
// signals StatusPrepared and parks on the entry's gate until commit,
// abort, or the PrepareHold bound. The declared effects stay held for
// the whole park, which is the entire point: every conflicting op on
// this shard queues behind the hold until the coordinator decides.
func (s *session) handlePrepare(req *Request) {
	m := &s.srv.m
	m.Requests.Add(1)
	m.Prepares.Add(1)
	reject := func(format string, args ...any) {
		m.Rejected.Add(1)
		s.q <- pending{resp: &Response{ID: req.ID, Status: StatusRejected, Err: fmt.Sprintf(format, args...)}}
	}
	if req.wireErr != nil {
		reject("%v", req.wireErr)
		return
	}
	declared := req.resolved
	if !req.hasResolved {
		var err error
		declared, err = s.srv.cache.Lookup(req.Eff)
		if err != nil {
			reject("bad effect: %v", err)
			return
		}
	}
	// Sub names the inner op a commit executes; empty is a pure hold
	// (nothing but the effects themselves — the coordinator uses it on
	// shards a cross-shard write must exclude but not touch).
	var innerTask *core.Task
	required := effect.Set{}
	if req.Sub != "" {
		inner := Request{ID: req.ID, Op: req.Sub, Key: req.Key, Val: req.Val}
		var err error
		innerTask, required, err = s.buildTask(&inner)
		if err != nil {
			reject("%v", err)
			return
		}
	}
	if !declared.Covers(required) {
		reject("declared effect %q does not cover required %q", declared, required)
		return
	}
	e := &prepEntry{id: req.ID, gate: make(chan bool, 1),
		started: make(chan struct{}), done: make(chan struct{}), arrive: time.Now()}
	holdFor := s.srv.cfg.PrepareHold
	task := &core.Task{
		Name: "prepare",
		Eff:  declared,
		Body: func(ctx *core.Ctx, arg any) (any, error) {
			close(e.started)
			// Stopped once the gate fires: under the module's go 1.22 timer
			// rules an unstopped timer (time.After's included) stays in the
			// runtime heap for the whole PrepareHold after every commit.
			timer := time.NewTimer(holdFor)
			select {
			case commit := <-e.gate:
				timer.Stop()
				if !commit {
					return nil, core.ErrCancelled
				}
			case <-timer.C:
				return nil, fmt.Errorf("prepared hold expired after %v: %w", holdFor, core.ErrDeadlineExceeded)
			}
			if err := ctx.Err(); err != nil {
				return nil, err // disconnect raced the commit; nothing ran
			}
			if innerTask == nil {
				m.PureHolds.Add(1)
				return int64(0), nil
			}
			return innerTask.Body(ctx, arg)
		},
	}
	if cur := m.IncInflight(); s.srv.cfg.MaxInflight > 0 && cur > int64(s.srv.cfg.MaxInflight) {
		m.DecInflight()
		m.Busy.Add(1)
		s.q <- pending{resp: &Response{ID: req.ID, Status: StatusBusy}}
		return
	}
	opts := []core.SubmitOption{core.WithOnDone(func(*core.Future) { close(e.done) })}
	if d := s.srv.cfg.Deadline; d > 0 {
		opts = append(opts, core.WithDeadline(d))
	}
	e.fut = s.srv.rt.Submit(task, opts...)
	s.mu.Lock()
	s.pend[req.ID] = e.fut
	s.prep[req.ID] = e
	s.mu.Unlock()
	s.q <- pending{id: req.ID, prepE: e}
}

// finishPrepare relays a commit or abort to its parked hold. These are
// inline control ops — they never enter the runtime, so they cannot
// queue behind the very hold they are supposed to release — and their
// response carries the hold's terminal outcome (the inner op's value on
// a served commit).
func (s *session) finishPrepare(req *Request) {
	m := &s.srv.m
	m.ControlOps.Add(1)
	commit := req.Op == OpCommit
	if commit {
		m.Commits.Add(1)
	} else {
		m.Aborts.Add(1)
	}
	s.mu.Lock()
	e := s.prep[req.Target]
	delete(s.prep, req.Target)
	s.mu.Unlock()
	if e == nil {
		s.q <- pending{resp: &Response{ID: req.ID, Status: StatusRejected,
			Err: fmt.Sprintf("no prepared hold with id %d", req.Target)}}
		return
	}
	e.gate <- commit
	s.q <- pending{id: req.ID, holdE: e}
}

// reapPrepares aborts every hold still registered when the reader exits
// (disconnect, protocol error, or graceful drain — in all three cases no
// commit can ever arrive again) and enqueues a silent pending per hold
// so the writer still resolves its accounting and in-flight slot. It
// runs on the reader goroutine, before the queue closes.
func (s *session) reapPrepares() {
	s.mu.Lock()
	entries := make([]*prepEntry, 0, len(s.prep))
	for id, e := range s.prep {
		delete(s.prep, id)
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		s.srv.m.Aborts.Add(1)
		e.gate <- false
		e.fut.Cancel(core.ErrCancelled) // pre-start holds resolve immediately
		s.q <- pending{holdE: e, silent: true}
	}
}

// heldPrepares reports how many holds are parked between prepare and
// commit/abort (the /debug/twe held_prepares gauge).
func (s *session) heldPrepares() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.prep)
}

// resolveHold resolves a hold's future exactly once (writer goroutine
// only; queue order serializes every pending that references the entry)
// and returns the outcome as a response with the given id. The first
// resolution does the accounting — status counters, in-flight slot,
// request latency — later callers replay the cached outcome.
func (s *session) resolveHold(e *prepEntry, id uint64) *Response {
	if !e.accounted {
		e.accounted = true
		e.v, e.err = s.srv.rt.GetValue(e.fut)
		s.srv.m.DecInflight()
		s.mu.Lock()
		delete(s.pend, e.id)
		s.mu.Unlock()
		s.srv.m.ReqLat.Observe(time.Since(e.arrive).Nanoseconds())
		return s.classify(id, e.v, e.err)
	}
	return respFor(id, e.v, e.err)
}

// buildTask returns the op's task body and its required (minimal)
// effect, from the session's memo of required sets. Bodies touch shard
// state with no synchronization — the scheduler's isolation guarantee is
// load-bearing here, and the isolcheck oracle audits it in CI.
func (s *session) buildTask(req *Request) (*core.Task, effect.Set, error) {
	st := s.srv.st
	hold := s.srv.cfg.Hold
	m := &s.srv.m
	checkKey := func() error {
		if req.Key < 0 || req.Key >= s.srv.cfg.Keys {
			return fmt.Errorf("key %d out of range [0,%d)", req.Key, s.srv.cfg.Keys)
		}
		return nil
	}
	switch req.Op {
	case OpPut:
		if err := checkKey(); err != nil {
			return nil, effect.Set{}, err
		}
		shard, slot := st.slot(req.Key)
		key, val := req.Key, req.Val
		return &core.Task{
			Name: st.putNames[shard],
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if hold != nil {
					hold(OpPut, key)
				}
				if err := ctx.Err(); err != nil {
					return nil, err // shed or cancelled before any access
				}
				t0 := time.Now()
				st.shards[shard][slot] = val
				s.ops++
				m.RunLat.Observe(time.Since(t0).Nanoseconds())
				return int64(0), nil
			},
		}, memoSet(&s.required.put[shard], func() effect.Set { return putEffectSet(shard, s.id) }), nil

	case OpGet:
		if err := checkKey(); err != nil {
			return nil, effect.Set{}, err
		}
		shard, slot := st.slot(req.Key)
		key := req.Key
		return &core.Task{
			Name: st.getNames[shard],
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if hold != nil {
					hold(OpGet, key)
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				t0 := time.Now()
				v := st.shards[shard][slot]
				s.ops++
				m.RunLat.Observe(time.Since(t0).Nanoseconds())
				return v, nil
			},
		}, memoSet(&s.required.get[shard], func() effect.Set { return getEffectSet(shard, s.id) }), nil

	case OpAdd:
		if err := checkKey(); err != nil {
			return nil, effect.Set{}, err
		}
		key, delta := req.Key, req.Val
		ref := st.accum[key]
		return &core.Task{
			Name: "add",
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if hold != nil {
					hold(OpAdd, key)
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				t0 := time.Now()
				var total int64
				if _, err := st.reg.Run(func(tx *dyneff.Tx) error {
					if err := ctx.Err(); err != nil {
						return err // abort rolls the section back
					}
					cur, _ := tx.Get(ref).(int64)
					total = cur + delta
					tx.Set(ref, total)
					return nil
				}); err != nil {
					return nil, err
				}
				s.ops++
				m.RunLat.Observe(time.Since(t0).Nanoseconds())
				return total, nil
			},
		}, memoSet(&s.required.add, func() effect.Set { return addEffectSet(s.id) }), nil

	case OpScan:
		return &core.Task{
			Name: "scan",
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if hold != nil {
					hold(OpScan, -1)
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				t0 := time.Now()
				var total int64
				for _, shard := range st.shards {
					for _, v := range shard {
						total += v
					}
				}
				s.ops++
				m.RunLat.Observe(time.Since(t0).Nanoseconds())
				return total, nil
			},
		}, memoSet(&s.required.scan, func() effect.Set { return scanEffectSet(s.id) }), nil

	default:
		return nil, effect.Set{}, fmt.Errorf("unknown op %q", req.Op)
	}
}

func (s *session) writer() {
	alive := true
	row := int32(obs.ReqRowBase + s.id)
	for p := range s.q {
		resp := p.resp
		flush := false
		switch {
		case p.prepE != nil:
			e := p.prepE
			select {
			case <-e.started:
				// Effects held, body parked: the coordinator may commit.
				// The ack goes out now, not when the queue drains: the
				// session's later ops queue behind the hold, and the
				// coordinator commits only once it has every ack.
				resp = &Response{ID: p.id, Status: StatusPrepared}
				flush = true
			case <-e.done:
				// Resolved without ever starting (cancelled, shed, or the
				// connection died first): the prepare answers the terminal
				// status and the hold is forgotten.
				resp = s.resolveHold(e, p.id)
				s.mu.Lock()
				delete(s.prep, e.id)
				s.mu.Unlock()
			}
		case p.holdE != nil:
			resp = s.resolveHold(p.holdE, p.id)
			if p.silent {
				continue // reaper pending: accounting only, client is gone
			}
		case p.fut != nil:
			v, err := s.srv.rt.GetValue(p.fut)
			resp = s.classify(p.id, v, err)
			s.srv.m.DecInflight()
			s.mu.Lock()
			delete(s.pend, p.id)
			s.mu.Unlock()
			s.srv.m.ReqLat.Observe(time.Since(p.arrive).Nanoseconds())
		}
		var respTS int64
		if p.op != "" {
			respTS = s.srv.tr.Clock()
		}
		if alive {
			// After a write error (client gone) keep draining futures —
			// their accounting and effect release must still happen.
			if err := s.codec.WriteResponse(resp); err != nil {
				alive = false
			} else if (flush || len(s.q) == 0) && s.codec.Flush() != nil {
				alive = false
			}
		}
		if p.op != "" {
			s.emitSpans(&p, respTS, row)
		}
	}
	if alive {
		s.codec.Flush()
	}
}

// emitSpans emits the request's span chain (DESIGN.md §14) once its
// response has been written: recv and decode from the codec stamps, the
// admission wait and body run from the future's trace stamps — with the
// wait span naming the blocking task and the conflicting effect when the
// scheduler recorded one — and the respond span around the encode+flush
// that just happened. The same durations feed the per-phase histograms.
func (s *session) emitSpans(p *pending, respTS int64, row int32) {
	tr := s.srv.tr
	m := &s.srv.m
	var seq uint64
	if p.fut != nil {
		seq = p.fut.Seq()
	}
	if p.recvTS > 0 || p.recvNS > 0 {
		tr.Emit(obs.Event{Kind: obs.KindReqRecv, TS: p.recvTS, Dur: p.recvNS,
			Task: seq, Other: p.trace, Worker: row, Name: p.op})
		tr.Emit(obs.Event{Kind: obs.KindReqDecode, TS: p.recvTS + p.recvNS, Dur: p.decNS,
			Task: seq, Other: p.trace, Worker: row, Name: p.op})
		m.Phase[PhaseRecv].Observe(p.recvNS)
		m.Phase[PhaseDecode].Observe(p.decNS)
	}
	if p.fut != nil {
		sub, en, start, fin := p.fut.TraceStamps()
		if sub > 0 && en >= sub {
			ev := obs.Event{Kind: obs.KindReqWait, TS: sub, Dur: en - sub,
				Task: seq, Other: p.trace, Worker: row, Name: p.op}
			if _, _, desc, ok := p.fut.WaitFor(); ok {
				ev.Detail = desc
			}
			tr.Emit(ev)
			m.Phase[PhaseWait].Observe(en - sub)
		}
		if start > 0 && fin >= start {
			tr.Emit(obs.Event{Kind: obs.KindReqExec, TS: start, Dur: fin - start,
				Task: seq, Other: p.trace, Worker: row, Name: p.op})
			m.Phase[PhaseExec].Observe(fin - start)
		}
	}
	dur := tr.Clock() - respTS
	tr.Emit(obs.Event{Kind: obs.KindReqRespond, TS: respTS, Dur: dur,
		Task: seq, Other: p.trace, Worker: row, Name: p.op})
	m.Phase[PhaseRespond].Observe(dur)
}

// classify accounts a resolved outcome into the Served/Shed/Cancelled/
// Errors split and returns its wire response. Exactly one classify per
// admitted op — replays of an already-accounted hold use respFor.
func (s *session) classify(id uint64, v any, err error) *Response {
	m := &s.srv.m
	switch {
	case err == nil:
		m.Served.Add(1)
	case errors.Is(err, core.ErrDeadlineExceeded):
		m.Shed.Add(1)
	case errors.Is(err, core.ErrCancelled):
		m.Cancelled.Add(1)
	default:
		m.Errors.Add(1)
	}
	return respFor(id, v, err)
}

// respFor maps a resolved outcome to its wire response without touching
// any counter.
func respFor(id uint64, v any, err error) *Response {
	switch {
	case err == nil:
		resp := &Response{ID: id, Status: StatusOK}
		if val, ok := v.(int64); ok {
			resp.Val = val
		}
		return resp
	case errors.Is(err, core.ErrDeadlineExceeded):
		return &Response{ID: id, Status: StatusShed, Err: err.Error()}
	case errors.Is(err, core.ErrCancelled):
		return &Response{ID: id, Status: StatusCancelled}
	default:
		return &Response{ID: id, Status: StatusError, Err: err.Error()}
	}
}

// abort cancels every in-flight future after a disconnect and returns
// how many were still pending.
func (s *session) abort() int {
	s.mu.Lock()
	futs := make([]*core.Future, 0, len(s.pend))
	for _, f := range s.pend {
		futs = append(futs, f)
	}
	s.mu.Unlock()
	for _, f := range futs {
		f.Cancel(core.ErrCancelled)
	}
	return len(futs)
}
