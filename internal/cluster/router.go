package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twe/internal/effect"
	"twe/internal/svc"
)

// Config shapes a Router.
type Config struct {
	// Shards lists the member wire addresses; index == member id. The
	// fleet size is len(Shards), at most MaxMembers.
	Shards []string
	// ShardDebug optionally lists the members' debug/metrics HTTP base
	// URLs ("http://host:port"), index-aligned with Shards; when set, the
	// health prober verifies each member's reported shard_id against its
	// index and tracks liveness for /healthz.
	ShardDebug []string
	// CrossLane picks the cross-shard admission lane: "2pc" (default —
	// two-phase prepare/commit holds on every touched member) or "serial"
	// (stop-the-world: quiesce all forwarding, run the pieces serially).
	CrossLane string
	// ProbeEvery is the health-probe period (default 500ms; needs
	// ShardDebug).
	ProbeEvery time.Duration
	// EffCacheSize bounds the router's effect-parse memo (default 4096).
	EffCacheSize int
}

func (c Config) withDefaults() Config {
	if c.CrossLane == "" {
		c.CrossLane = "2pc"
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	if c.EffCacheSize <= 0 {
		c.EffCacheSize = 4096
	}
	return c
}

// shardCounters is the router's per-member ledger, the left-hand side of
// the fleet accounting identity the oracle checks (bench.go): at idle
// with no faults, member i's own Requests counter equals Fwd+Prep and
// its Served equals Srv — every op the shard accounted for was put there
// by this router, exactly once.
type shardCounters struct {
	Fwd  atomic.Int64 // data ops forwarded directly (owner lane + serial lane)
	Prep atomic.Int64 // prepare ops issued by the coordinator
	Srv  atomic.Int64 // served outcomes observed from this member
}

// Router terminates client connections speaking both wire protocols and
// forwards each request to the member its declared effect routes to.
// It keeps the single-node service contract client-side: per-connection
// pipelined in-order responses, the same status vocabulary, a stats op
// answered from the router's own client-facing accounting (so the
// twe-load oracles run against a cluster unchanged), and effect-checked
// admission — on the members, by the same runtime as ever.
type Router struct {
	cfg   Config
	n     int
	cache *svc.EffectCache
	coord *coordinator

	// Geometry learned from the members' hellos (all must agree).
	sched       string
	storeShards int
	keys        int

	m        svc.Metrics // client-facing accounting (stats-op answer)
	perShard []shardCounters
	lat      []shardLat

	// flow is the serial-lane gate: every forwarded op holds it for
	// reading from send to response-matched; the stop-the-world lane
	// takes it for writing, which both quiesces outstanding work and
	// pauses new forwards.
	flow sync.RWMutex

	ln       net.Listener
	draining atomic.Bool
	acceptWg sync.WaitGroup
	sessWg   sync.WaitGroup

	mu      sync.Mutex
	live    map[*rsession]struct{}
	nextSid int

	health    []memberHealth
	probeStop chan struct{}
	probeDone chan struct{}
}

type memberHealth struct {
	healthy      atomic.Bool
	lastErr      atomic.Pointer[string]
	shardID      atomic.Int64 // as reported by /debug/twe; -2 = never probed
	heldPrepares atomic.Int64
	inflight     atomic.Int64
}

// New builds a Router over the given member fleet, dialing every member
// once to learn (and cross-check) the store geometry.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shard addresses")
	}
	if len(cfg.Shards) > MaxMembers {
		return nil, fmt.Errorf("cluster: %d members exceeds the %d-member bound", len(cfg.Shards), MaxMembers)
	}
	if cfg.CrossLane != "2pc" && cfg.CrossLane != "serial" {
		return nil, fmt.Errorf("cluster: unknown cross lane %q (want 2pc or serial)", cfg.CrossLane)
	}
	if len(cfg.ShardDebug) != 0 && len(cfg.ShardDebug) != len(cfg.Shards) {
		return nil, fmt.Errorf("cluster: %d debug URLs for %d shards", len(cfg.ShardDebug), len(cfg.Shards))
	}
	r := &Router{
		cfg:       cfg,
		n:         len(cfg.Shards),
		cache:     svc.NewEffectCache(cfg.EffCacheSize),
		perShard:  make([]shardCounters, len(cfg.Shards)),
		lat:       make([]shardLat, len(cfg.Shards)),
		live:      make(map[*rsession]struct{}),
		health:    make([]memberHealth, len(cfg.Shards)),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for i := range r.health {
		r.health[i].shardID.Store(-2)
	}
	for i, addr := range cfg.Shards {
		c, err := svc.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: member %d (%s): %w", i, addr, err)
		}
		sched, shards, keys := c.Sched, c.Shards, c.Keys
		c.Close()
		if i == 0 {
			r.sched, r.storeShards, r.keys = sched, shards, keys
			continue
		}
		if shards != r.storeShards || keys != r.keys {
			return nil, fmt.Errorf("cluster: member %d geometry %d/%d != member 0 geometry %d/%d",
				i, shards, keys, r.storeShards, r.keys)
		}
	}
	r.coord = newCoordinator(r)
	go r.probeLoop()
	return r, nil
}

// Members reports the fleet size.
func (r *Router) Members() int { return r.n }

// Metrics exposes the router's client-facing counters.
func (r *Router) Metrics() *svc.Metrics { return &r.m }

// Start accepts client connections on ln until Drain closes it. The
// listener and the accept loop's group entry are set before the loop is
// spawned, so a Drain that follows Start on any goroutine ordered after it
// always sees them (the shape of svc.Start).
func (r *Router) Start(ln net.Listener) {
	r.ln = ln
	r.acceptWg.Add(1)
	go r.acceptLoop(ln)
}

func (r *Router) acceptLoop(ln net.Listener) {
	defer r.acceptWg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		r.m.ConnsAccepted.Add(1)
		r.mu.Lock()
		sid := r.nextSid
		r.nextSid++
		sess := newRSession(r, sid, conn)
		r.live[sess] = struct{}{}
		r.mu.Unlock()
		r.sessWg.Add(1)
		go func() {
			defer r.sessWg.Done()
			sess.main()
			r.mu.Lock()
			delete(r.live, sess)
			r.mu.Unlock()
			r.m.ConnsClosed.Add(1)
		}()
	}
}

// Stats assembles the stats-op answer from the router's own accounting;
// field meanings match the single-node StatsBody so the load generator's
// cross-check runs unchanged against a cluster.
func (r *Router) Stats() svc.StatsBody {
	r.mu.Lock()
	sessions := int64(len(r.live))
	r.mu.Unlock()
	hits, misses := r.cache.Stats()
	return svc.StatsBody{
		Sched:         r.sched,
		Shards:        r.storeShards,
		Keys:          r.keys,
		Sessions:      sessions,
		ConnsAccepted: r.m.ConnsAccepted.Load(),
		Disconnects:   r.m.Disconnects.Load(),
		Requests:      r.m.Requests.Load(),
		Served:        r.m.Served.Load(),
		Shed:          r.m.Shed.Load(),
		Busy:          r.m.Busy.Load(),
		Cancelled:     r.m.Cancelled.Load(),
		Rejected:      r.m.Rejected.Load(),
		Errors:        r.m.Errors.Load(),
		ControlOps:    r.m.ControlOps.Load(),
		Batches:       r.m.Batches.Load(),
		BatchedOps:    r.m.BatchedOps.Load(),
		EffHits:       hits,
		EffMisses:     misses,
		Inflight:      r.m.Inflight(),
		InflightPeak:  r.m.InflightPeak(),
		V1Conns:       r.m.V1Conns.Load(),
		V2Conns:       r.m.V2Conns.Load(),
		EffRegs:       r.m.EffRegs.Load(),
	}
}

// Drain stops accepting, wakes every live session's reader (the same
// read-deadline poke twe-serve uses), and waits for sessions to finish
// flushing. The coordinator and probe loops shut down after. On a router
// that was never started there is no listener or accept loop to stop.
func (r *Router) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	r.draining.Store(true)
	if r.ln != nil {
		r.ln.Close()
	}
	r.acceptWg.Wait()
	r.mu.Lock()
	for sess := range r.live {
		sess.conn.SetReadDeadline(time.Now())
	}
	r.mu.Unlock()
	done := make(chan struct{})
	go func() { r.sessWg.Wait(); close(done) }()
	var drainErr error
	select {
	case <-done:
	case <-time.After(timeout):
		r.mu.Lock()
		n := len(r.live)
		r.mu.Unlock()
		drainErr = fmt.Errorf("cluster: drain timed out after %v (%d session(s) still live)", timeout, n)
	}
	close(r.probeStop)
	<-r.probeDone
	r.coord.close()
	return drainErr
}

// routeMemo caches one declared effect's routing work: the decision and
// the rewritten effect string per member (filled lazily as connections
// dial). v1 keys the memo by the effect string, v2 by the connection's
// effect ref (validated against the resolved set, since refs may be
// re-registered). Every decision rewrites into the session's own
// upstreams, except on the serial lane, where a cross or global one
// rewrites into the coordinator's connection; the decision is fixed, so
// a memo only ever serves one of the two. Each rewritten string
// remembers the session id it was computed for: a member re-dial gets a
// fresh sid, and sending a stale Session:[oldSid] rewrite would land the
// op in another session's namespace.
type routeMemo struct {
	set       effect.Set
	dec       Decision
	rewritten []string // per member; "" = not yet computed
	rewSID    []int    // connection sid rewritten[k] was computed against
}

func newRouteMemo(set effect.Set, n int) *routeMemo {
	return &routeMemo{set: set, dec: Route(set, n),
		rewritten: make([]string, n), rewSID: make([]int, n)}
}

// rewrite returns the declared effect mapped from the client's session
// clientSid into member k's connection session upSID.
func (m *routeMemo) rewrite(k, clientSid, upSID int) (string, error) {
	if m.rewritten[k] == "" || m.rewSID[k] != upSID {
		rw, err := RewriteSession(m.set, clientSid, upSID)
		if err != nil {
			return "", err
		}
		m.rewritten[k], m.rewSID[k] = rw.String(), upSID
	}
	return m.rewritten[k], nil
}

// upConn is one session's connection to one member. dead is closed by
// its recvLoop on exit; forwards check it after registering an entry so
// an op can never be parked on a connection nobody is reading from.
// wmu serializes writes: the reader's forwards and prepares, and the
// commits or aborts a round's last replier sends from a recvLoop. dirty
// marks sent-but-unflushed requests (reader goroutine only).
type upConn struct {
	c     *svc.Client
	dead  chan struct{}
	wmu   sync.Mutex
	dirty bool
}

// legIDBase marks the request ids of two-phase legs. A session's leg ids
// count up from it. A client data op with an id at or above it is
// rejected, and a cancel with one is acknowledged without being
// forwarded, so a leg reply can never settle a client entry or the
// reverse.
const legIDBase = 1 << 63

// proxyEntry is one response owed to the client: either forwarded (resp
// arrives when the upstream recv goroutine matches the id) or local
// (resp pre-filled, done already closed). A leg entry instead carries a
// two-phase leg's request: its reply goes to the leg's round, and the
// client never sees it.
type proxyEntry struct {
	id      uint64
	shard   int // forwarded member; -1 for local entries
	counted bool
	isData  bool
	sent    time.Time
	resp    *svc.Response
	done    chan struct{}
	leg     *leg
}

type rsession struct {
	r    *Router
	sid  int
	conn net.Conn
	sc   *svc.ServerConn
	q    chan *proxyEntry

	mu   sync.Mutex
	byID map[uint64]*proxyEntry

	// ups is guarded by mu: the reader goroutine dials slots lazily and
	// each member's recvLoop clears its own slot on connection loss, so
	// the next forward re-dials instead of writing into a dead socket.
	ups []*upConn
	wg  sync.WaitGroup // outstanding counted entries (cross-op barrier)

	// dirty lists the upstreams holding unflushed requests (reader
	// goroutine only); see flushDirty for when they are pushed.
	dirty []*upConn

	nextLeg uint64 // guarded by mu: the last leg id handed out, less legIDBase

	memoV1 map[string]*routeMemo // bounded by cfg.EffCacheSize
	memoV2 []*routeMemo
}

// writerQueueCap bounds a session's queue of owed responses. It also
// bounds how many later ops a member can receive behind a round's hold
// before the commit: writerQueueCap, plus one op sent before enqueue
// blocks. svc's respQueueCap must hold all of them but the one its
// writer waits on, or the member's reader never reaches the commit frame
// (DESIGN.md §16).
const writerQueueCap = 256

func newRSession(r *Router, sid int, conn net.Conn) *rsession {
	return &rsession{r: r, sid: sid, conn: conn,
		q:      make(chan *proxyEntry, writerQueueCap),
		byID:   make(map[uint64]*proxyEntry),
		ups:    make([]*upConn, r.n),
		memoV1: make(map[string]*routeMemo),
	}
}

func (s *rsession) main() {
	defer s.conn.Close()
	br := bufio.NewReaderSize(s.conn, 32<<10)
	bw := bufio.NewWriterSize(s.conn, 32<<10)
	sc, err := svc.NewServerConn(br, bw, s.r.cache, &s.r.m)
	if err != nil {
		s.r.m.ProtoErrors.Add(1)
		return
	}
	s.sc = sc
	if sc.Proto() == svc.ProtoV2 {
		s.r.m.V2Conns.Add(1)
		s.r.m.V2Live.Add(1)
		defer s.r.m.V2Live.Add(-1)
		s.memoV2 = make([]*routeMemo, svc.MaxEffectRefs)
	} else {
		s.r.m.V1Conns.Add(1)
		s.r.m.V1Live.Add(1)
		defer s.r.m.V1Live.Add(-1)
	}
	geo := &svc.StatsBody{Sched: s.r.sched, Shards: s.r.storeShards, Keys: s.r.keys}
	s.local(&svc.Response{Status: svc.StatusHello, Val: int64(s.sid), Stats: geo})
	writerDone := make(chan struct{})
	go func() { defer close(writerDone); s.writer() }()
	s.reader()
	close(s.q)
	<-writerDone
	s.mu.Lock()
	ups := append([]*upConn(nil), s.ups...)
	s.mu.Unlock()
	for _, u := range ups {
		if u != nil {
			u.c.Close()
		}
	}
}

func (s *rsession) reader() {
	for {
		if !s.sc.RequestBuffered() {
			s.flushDirty() // the next read may wait on the client
		}
		var req svc.Request
		if err := s.sc.ReadRequest(&req); err != nil {
			var ne net.Error
			if s.r.draining.Load() && errors.As(err, &ne) && ne.Timeout() {
				s.flushDirty()
				return // graceful drain: stop reading, let pendings flush
			}
			// Disconnect: best-effort cancel of everything still
			// outstanding on the members, mirroring the single-node
			// server's effect release on disconnect.
			if n := s.cancelOutstanding(); n > 0 {
				s.r.m.Disconnects.Add(1)
			}
			return
		}
		s.handle(&req, false)
	}
}

func (s *rsession) handle(req *svc.Request, inBatch bool) {
	switch req.Op {
	case svc.OpBatch:
		if inBatch {
			s.r.m.Requests.Add(1)
			s.r.m.Rejected.Add(1)
			s.local(&svc.Response{ID: req.ID, Status: svc.StatusRejected, Err: "nested batch"})
			return
		}
		// The router decomposes batch frames and forwards the inner ops
		// individually — the wire contract (DESIGN.md §12) makes that
		// observationally identical to back-to-back frames; only the
		// members' SubmitBatch amortization is lost.
		s.r.m.Batches.Add(1)
		s.r.m.BatchedOps.Add(int64(len(req.Batch)))
		for i := range req.Batch {
			s.handle(&req.Batch[i], true)
		}
	case svc.OpStats:
		s.r.m.ControlOps.Add(1)
		st := s.r.Stats()
		s.local(&svc.Response{ID: req.ID, Status: svc.StatusOK, Stats: &st})
	case svc.OpCancel:
		s.handleCancel(req)
	case svc.OpPrepare, svc.OpCommit, svc.OpAbort:
		// The two-phase lane is coordinator-internal; clients do not
		// drive it through the router.
		s.r.m.Requests.Add(1)
		s.r.m.Rejected.Add(1)
		s.local(&svc.Response{ID: req.ID, Status: svc.StatusRejected, Err: fmt.Sprintf("op %q is not routable", req.Op)})
	default:
		s.handleData(req)
	}
}

// handleCancel forwards a cancel to the member its target was routed to,
// or acks landed=0 locally when the target is unknown (already resolved,
// a cross-shard op, or one of a round's legs) or the cancel's own id is
// in the leg range.
func (s *rsession) handleCancel(req *svc.Request) {
	s.r.m.ControlOps.Add(1)
	s.mu.Lock()
	target := s.byID[req.Target]
	var u *upConn
	if target != nil && target.shard >= 0 && target.leg == nil && req.ID < legIDBase {
		u = s.ups[target.shard]
	}
	s.mu.Unlock()
	if u == nil {
		s.local(&svc.Response{ID: req.ID, Status: svc.StatusOK, Val: 0})
		return
	}
	e := &proxyEntry{id: req.ID, shard: target.shard, done: make(chan struct{})}
	s.mu.Lock()
	s.byID[req.ID] = e
	s.mu.Unlock()
	fwd := svc.Request{ID: req.ID, Op: svc.OpCancel, Target: req.Target}
	s.dispatch(u, e, &fwd, "unreachable")
}

// handleData routes one data op by its declared effect and forwards it.
func (s *rsession) handleData(req *svc.Request) {
	m := &s.r.m
	m.Requests.Add(1)
	reject := func(format string, args ...any) {
		m.Rejected.Add(1)
		s.local(&svc.Response{ID: req.ID, Status: svc.StatusRejected, Err: fmt.Sprintf(format, args...)})
	}
	if err := req.WireErr(); err != nil {
		reject("%v", err)
		return
	}
	if req.ID >= legIDBase {
		reject("request id %d is reserved for cross-shard legs (ids must be below %d)", req.ID, uint64(legIDBase))
		return
	}
	// Key-range validation mirrors the member-side buildTask check, but
	// must happen here too: routing (OwnerOfKey, perShard ledgers) indexes
	// by the key's owner before any member ever sees the request.
	switch req.Op {
	case svc.OpPut, svc.OpGet, svc.OpAdd:
		if req.Key < 0 || req.Key >= s.r.keys {
			reject("key %d out of range [0,%d)", req.Key, s.r.keys)
			return
		}
	}
	memo, err := s.routeFor(req)
	if err != nil {
		reject("bad effect: %v", err)
		return
	}
	switch memo.dec.Kind {
	case KindShard:
		s.forward(memo.dec.Shard, req, memo)
	case KindNone:
		s.forward(OwnerOfKey(req.Key, s.r.storeShards, s.r.n), req, memo)
	default:
		owner, scanAll, resp := s.r.crossPlan(req, memo)
		switch {
		case resp != nil:
		case s.r.cfg.CrossLane == "2pc":
			s.startRound(req, memo, owner, scanAll)
			return
		default:
			// The serial lane runs on the coordinator's connections, which
			// nothing orders against this session's upstreams: barrier on
			// its outstanding ops, then run the op synchronously. Later
			// ops are not even read until it finishes, so program order
			// holds on both sides.
			s.flushDirty()
			s.wg.Wait()
			resp = s.r.coord.runSerial(s.sid, req, memo, owner, scanAll)
		}
		resp.ID = req.ID
		s.r.classify(resp.Status)
		s.local(resp)
	}
}

// routeFor resolves the request's declared effect and returns the memo
// carrying its routing decision, keyed by v2 effect ref or v1 string.
func (s *rsession) routeFor(req *svc.Request) (*routeMemo, error) {
	set, resolved := req.ResolvedEffect()
	if ref, ok := req.EffRef(); ok && s.memoV2 != nil && int(ref) < len(s.memoV2) {
		if m := s.memoV2[ref]; m != nil && m.set.Equal(set) {
			return m, nil
		}
		m := newRouteMemo(set, s.r.n)
		s.memoV2[ref] = m
		return m, nil
	}
	if !resolved {
		if m := s.memoV1[req.Eff]; m != nil {
			return m, nil
		}
		var err error
		set, err = s.r.cache.Lookup(req.Eff)
		if err != nil {
			return nil, err
		}
		m := newRouteMemo(set, s.r.n)
		if len(s.memoV1) >= s.r.cfg.EffCacheSize {
			// Keep the memo bounded like the shared EffectCache: a client
			// cycling distinct effect strings must not grow router memory
			// without bound. Map iteration order gives a cheap arbitrary
			// eviction victim.
			for k := range s.memoV1 {
				delete(s.memoV1, k)
				break
			}
		}
		s.memoV1[req.Eff] = m
		return m, nil
	}
	return newRouteMemo(set, s.r.n), nil
}

// upstream returns (dialing on first use, or re-dialing after its
// recvLoop cleared the slot on connection loss) this session's
// connection to member k. Each client session gets its own upstream per
// member, so the member assigns it a dedicated session id — program
// order per (client, member) rides on the upstream's session effect
// exactly as it does for a directly-connected client.
func (s *rsession) upstream(k int) (*upConn, error) {
	s.mu.Lock()
	u := s.ups[k]
	s.mu.Unlock()
	if u != nil {
		return u, nil
	}
	s.flushDirty()
	c, err := svc.DialProto(s.r.cfg.Shards[k], svc.ProtoV2)
	if err != nil {
		return nil, err
	}
	u = &upConn{c: c, dead: make(chan struct{})}
	s.mu.Lock()
	s.ups[k] = u
	s.mu.Unlock()
	go s.recvLoop(k, u)
	return u, nil
}

// forward sends req to member k with its session effect rewritten into
// the upstream connection's namespace.
func (s *rsession) forward(k int, req *svc.Request, memo *routeMemo) {
	u, err := s.upstream(k)
	if err != nil {
		s.r.m.Errors.Add(1)
		s.local(&svc.Response{ID: req.ID, Status: svc.StatusError,
			Err: fmt.Sprintf("member %d unavailable: %v", k, err)})
		return
	}
	eff, err := memo.rewrite(k, s.sid, u.c.SID)
	if err != nil {
		s.r.m.Rejected.Add(1)
		s.local(&svc.Response{ID: req.ID, Status: svc.StatusRejected, Err: err.Error()})
		return
	}
	e := &proxyEntry{id: req.ID, shard: k, counted: true, isData: true,
		sent: time.Now(), done: make(chan struct{})}
	if !s.r.flow.TryRLock() {
		// A serial round is waiting for every forward in flight, this
		// session's unflushed ones included.
		s.flushDirty()
		s.r.flow.RLock()
	}
	s.r.m.IncInflight()
	s.r.perShard[k].Fwd.Add(1)
	s.wg.Add(1)
	s.mu.Lock()
	s.byID[req.ID] = e
	s.mu.Unlock()
	fwd := svc.Request{ID: req.ID, Op: req.Op, Key: req.Key, Val: req.Val,
		Eff: eff, Trace: req.Trace}
	s.dispatch(u, e, &fwd, "send failed")
}

// dispatch buffers an already-registered entry's request on its
// upstream and hands the entry to the writer; the request goes out at
// the session's next flushDirty. If the send fails — or the upstream's
// recvLoop has already exited, in which case a send can still
// "succeed" with nobody left to match the response — the entry is
// failed locally. Settlement stays single-shot either way: failEntry
// only settles if the entry is still registered, and the dead-channel
// check is ordered against recvLoop's orphan sweep (dead is closed
// before the sweep; the entry was registered before this check), so an
// entry registered after the sweep is always caught here. The failure
// error reads "member <e.shard> <failure>" and is formatted only when
// it is used.
func (s *rsession) dispatch(u *upConn, e *proxyEntry, fwd *svc.Request, failure string) {
	if s.send(u, fwd) {
		select {
		case <-u.dead: // recvLoop has exited; fail the entry below
		default:
			s.enqueue(e)
			return
		}
	}
	s.failEntry(e, fmt.Errorf("member %d %s", e.shard, failure))
	s.enqueue(e)
}

// send buffers req on u and lists u for the next flushDirty. A failed
// send closes the upstream, as a failed flush does.
func (s *rsession) send(u *upConn, req *svc.Request) bool {
	u.wmu.Lock()
	err := u.c.Send(req)
	u.wmu.Unlock()
	if err != nil {
		u.c.Close()
		return false
	}
	if !u.dirty {
		u.dirty = true
		s.dirty = append(s.dirty, u)
	}
	return true
}

// flushDirty pushes every upstream's buffered requests to its member,
// one write per upstream however many forwards it carries. The reader
// calls it whenever it is about to wait on something an unflushed
// forward may be holding up: a read with no whole request buffered, the
// flow lock, the serial lane's barrier, a full writer queue, an
// upstream dial, the round order, and its own exit (DESIGN.md §16). A
// failed flush closes that upstream; its recvLoop then fails every entry
// the member owed.
func (s *rsession) flushDirty() {
	for i, u := range s.dirty {
		u.dirty = false
		u.wmu.Lock()
		err := u.c.Flush()
		u.wmu.Unlock()
		if err != nil {
			u.c.Close()
		}
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
}

// sendLeg registers l's next request (a prepare, commit or abort) under
// a fresh leg id and writes it on l's upstream. The reader's prepares
// wait for its next flushDirty; now pushes the request at once, which a
// recvLoop sending commits or aborts must do. A failed send fails the
// leg, as dispatch fails a forward.
func (s *rsession) sendLeg(l *leg, req *svc.Request, now bool) {
	e := &proxyEntry{shard: l.shard, leg: l}
	s.mu.Lock()
	s.nextLeg++
	e.id = legIDBase | s.nextLeg
	s.byID[e.id] = e
	if req.Op == svc.OpPrepare {
		l.prepID = e.id // under mu: recvLoop's lookup orders it before the round reads it
	}
	s.mu.Unlock()
	req.ID = e.id
	var sent bool
	if now {
		l.u.wmu.Lock()
		err := l.u.c.Send(req)
		if err == nil {
			err = l.u.c.Flush()
		}
		l.u.wmu.Unlock()
		if sent = err == nil; !sent {
			l.u.c.Close()
		}
	} else {
		sent = s.send(l.u, req)
	}
	if sent {
		select {
		case <-l.u.dead:
		default:
			return
		}
	}
	s.failEntry(e, fmt.Errorf("member %d %s send failed", l.shard, req.Op))
}

// enqueue hands e to the writer. A full queue means the writer waits on
// an older entry, which may be an unflushed forward: flush first.
func (s *rsession) enqueue(e *proxyEntry) {
	select {
	case s.q <- e:
	default:
		s.flushDirty()
		s.q <- e
	}
}

// recvLoop matches member k's responses to their entries. On upstream
// failure it marks the connection dead, clears the member's slot (so
// the next forward re-dials instead of writing into a dead socket), and
// fails every entry still owed by that member so the writer (and the
// barrier, and every round with a leg there) never hang. A reply whose
// id matches nothing sent means the connection is out of step, and
// counts as a failure: no later reply on it can be trusted.
func (s *rsession) recvLoop(k int, u *upConn) {
	for {
		resp, err := u.c.Recv()
		var e *proxyEntry
		if err == nil {
			s.mu.Lock()
			if e = s.byID[resp.ID]; e != nil {
				delete(s.byID, resp.ID)
			}
			s.mu.Unlock()
			if e == nil && resp.ID != 0 {
				err = fmt.Errorf("reply id %d matches no request", resp.ID)
			}
		}
		if err != nil {
			close(u.dead) // before the sweep: dispatch checks dead after registering
			s.mu.Lock()
			if s.ups[k] == u {
				s.ups[k] = nil
			}
			var orphans []*proxyEntry
			for id, e := range s.byID {
				if e.shard == k {
					delete(s.byID, id)
					orphans = append(orphans, e)
				}
			}
			s.mu.Unlock()
			u.c.Close()
			for _, e := range orphans {
				resp := lostReply(k, err)
				resp.ID = e.id
				s.settle(e, resp)
			}
			return
		}
		if e != nil { // nil: the ack of a best-effort disconnect cancel (id 0)
			s.settle(e, resp)
		}
	}
}

// settle resolves a forwarded entry exactly once: record the outcome,
// release the accounting the forward took, and wake the writer. The
// exactly-once contract rides on byID: only the path that removed the
// entry's registration calls settle.
func (s *rsession) settle(e *proxyEntry, resp *svc.Response) {
	if e.leg != nil {
		e.leg.rd.reply(e.leg, resp)
		return
	}
	e.resp = resp
	if e.isData {
		s.r.classify(resp.Status)
		if resp.Status == svc.StatusOK && e.shard >= 0 {
			s.r.perShard[e.shard].Srv.Add(1)
		}
		if e.shard >= 0 {
			s.r.lat[e.shard].observe(time.Since(e.sent).Nanoseconds())
		}
	}
	if e.counted {
		s.r.m.DecInflight()
		s.r.flow.RUnlock()
		s.wg.Done()
	}
	close(e.done)
}

// failEntry settles a forwarded entry with a local error after a send
// failure, but only if it is still registered: if recvLoop's orphan
// sweep (or a response) already claimed the id, that path owns the
// settle and doing it again would double-release flow/wg and close a
// closed channel.
func (s *rsession) failEntry(e *proxyEntry, err error) {
	s.mu.Lock()
	owned := s.byID[e.id] == e
	if owned {
		delete(s.byID, e.id)
	}
	s.mu.Unlock()
	if !owned {
		return
	}
	s.settle(e, &svc.Response{ID: e.id, Status: svc.StatusError, Err: err.Error()})
}

// local enqueues an already-decided response whose accounting (if any)
// the caller has already done.
func (s *rsession) local(resp *svc.Response) {
	e := &proxyEntry{id: resp.ID, shard: -1, resp: resp, done: make(chan struct{})}
	close(e.done)
	s.enqueue(e)
}

// cancelOutstanding fires best-effort cancels for every op still in
// flight after a client disconnect and returns how many there were: it
// queues every cancel, then flushes each upstream once. The responses
// to the cancels themselves are discarded by recvLoop (their ids are
// never registered).
func (s *rsession) cancelOutstanding() int {
	s.mu.Lock()
	type tgt struct {
		u  *upConn
		id uint64
	}
	var tgts []tgt
	for id, e := range s.byID {
		if e.shard >= 0 && e.counted {
			tgts = append(tgts, tgt{s.ups[e.shard], id})
		}
	}
	s.mu.Unlock()
	for _, t := range tgts {
		if t.u != nil {
			s.send(t.u, &svc.Request{ID: 0, Op: svc.OpCancel, Target: t.id})
		}
	}
	s.flushDirty()
	return len(tgts)
}

func (s *rsession) writer() {
	alive := true
	for e := range s.q {
		<-e.done
		if !alive {
			continue // keep draining so accounting still resolves
		}
		if err := s.sc.WriteResponse(e.resp); err != nil {
			alive = false
			continue
		}
		if len(s.q) == 0 && s.sc.Flush() != nil {
			alive = false
		}
	}
	if alive {
		s.sc.Flush()
	}
}

// classify accounts one relayed terminal status into the router's
// client-facing split (mirrors the single-node session's classify).
func (r *Router) classify(status string) {
	switch status {
	case svc.StatusOK:
		r.m.Served.Add(1)
	case svc.StatusShed:
		r.m.Shed.Add(1)
	case svc.StatusBusy:
		r.m.Busy.Add(1)
	case svc.StatusCancelled:
		r.m.Cancelled.Add(1)
	case svc.StatusRejected:
		r.m.Rejected.Add(1)
	default:
		r.m.Errors.Add(1)
	}
}
