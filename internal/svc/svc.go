package svc

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twe/internal/core"
	"twe/internal/isolcheck"
	"twe/internal/obs"
	"twe/internal/sched"
)

// Config sizes and shapes a Server.
type Config struct {
	Addr   string // listen address; empty means 127.0.0.1:0 (ephemeral)
	Sched  string // scheduler name resolved via internal/sched ("tree" default)
	Par    int    // pool parallelism (default 4)
	Shards int    // default 8
	Keys   int    // default 256

	// MaxInflight bounds admitted-but-unresolved data ops server-wide;
	// excess requests are refused with StatusBusy (backpressure). 0 means
	// unbounded.
	MaxInflight int
	// Deadline, when positive, is attached to every admitted data op:
	// requests that cannot start in time are shed with StatusShed
	// instead of served late (DESIGN.md §10 load shedding).
	Deadline time.Duration

	Isolcheck   bool // attach the isolation-oracle monitor
	EffCacheMax int  // effect-cache bound (default 4096)

	// ShardID is this server's stable identity inside a twe-cluster fleet
	// (0-based; DESIGN.md §16). It is surfaced in DebugSnapshot//debug/twe
	// and the Prometheus exposition so the router's health probes and
	// drain orchestration have something to key on. A server with ShardID
	// 0 must also set Advertise; otherwise the zero Config value is
	// normalized to -1, meaning standalone.
	ShardID int
	// Advertise is the address the server publishes to the control plane
	// (DebugSnapshot, Prometheus). Empty means the actual listen address.
	Advertise string

	// PrepareHold bounds how long a prepared cross-shard hold (OpPrepare)
	// may park waiting for its commit/abort before it self-aborts and
	// releases its effects (default 5s). The guarantee that a dead
	// coordinator cannot wedge a shard forever rests on this.
	PrepareHold time.Duration

	// ReqTrace turns on per-request span tracing (DESIGN.md §14): codecs
	// stamp frame read/decode times, the writer emits the
	// recv→decode→wait→exec→respond span chain onto the tracer, and the
	// per-phase histograms populate. Off by default: the request hot path
	// then carries no stamping and allocates nothing extra.
	ReqTrace bool

	// TraceEvents sizes the tracer ring (events per shard, 8 shards).
	// The ring overwrites its oldest events when full, so a traced run
	// that outlives the ring exports only its tail — admission-wait
	// spans from the contended early phase would be gone by drain time.
	// 0 builds no ring unless a consumer asks for one: ReqTrace then
	// defaults it to 16384 (request tracing emits ~5 spans per request)
	// and TaskLog to 4096. Without a ring the runtime metrics still count,
	// but no events, wait-for attribution or contention profile are
	// recorded (DESIGN.md §7); twe-serve -trace sets a positive value.
	TraceEvents int

	// TaskLog additionally records every task's name and declared-effect
	// string in the tracer (obs.WithTaskLog), so the drained server can
	// export a JSONL event log for the admission-spec refinement oracle
	// (twe-serve -eventlog → twe-spec -refine). Costs one formatted
	// effect string per submitted task; off by default.
	TaskLog bool

	// MkSched overrides Sched with an explicit scheduler constructor
	// (used by the workloads registry to plug in the harness scheduler).
	MkSched func() core.Scheduler
	// Opts are forwarded to core.NewRuntime (e.g. core.WithTracer).
	Opts []core.Option

	// Hold, when set, is called at the start of every data-op task body
	// before its cancellation check — a test seam that lets unit tests
	// gate body execution deterministically.
	Hold func(op string, key int)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Sched == "" {
		c.Sched = "tree"
	}
	if c.Par <= 0 {
		c.Par = 4
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Keys <= 0 {
		c.Keys = 256
	}
	if c.ShardID == 0 && c.Advertise == "" {
		c.ShardID = -1 // standalone (see the ShardID doc comment)
	}
	if c.PrepareHold <= 0 {
		c.PrepareHold = 5 * time.Second
	}
	return c
}

// Server is the twe-serve daemon: accept loop, per-connection sessions,
// and the TWE runtime they all submit into. The request path takes no
// locks around state accesses — the effect scheduler is the
// serialization layer; the only mutexes guard connection bookkeeping.
type Server struct {
	cfg       Config
	schedName string

	ln  net.Listener
	rt  *core.Runtime
	tr  *obs.Tracer
	chk *isolcheck.Checker
	st  *store

	m     Metrics
	cache *EffectCache

	draining atomic.Bool

	mu      sync.Mutex
	live    map[*session]struct{}
	doneOps int64 // store-visible ops of every closed session, for the drain audit
	nextSID int

	sessWg   sync.WaitGroup // live sessions
	acceptWg sync.WaitGroup
}

// Start builds the runtime and store, binds the listener, and begins
// accepting connections.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, live: make(map[*session]struct{})}

	mk := cfg.MkSched
	s.schedName = cfg.Sched
	if mk == nil {
		var err error
		mk, err = sched.Maker(sched.Config{Name: cfg.Sched})
		if err != nil {
			return nil, fmt.Errorf("svc: %w", err)
		}
	} else if cfg.Sched == "" {
		s.schedName = "custom"
	}

	// The tracer always exists, because the runtime metrics live in it;
	// its event ring is built only for a consumer (DESIGN.md §7).
	var tracerOpts []obs.Option
	switch {
	case cfg.TraceEvents > 0:
		tracerOpts = append(tracerOpts, obs.WithCapacity(cfg.TraceEvents))
	case cfg.ReqTrace:
		tracerOpts = append(tracerOpts, obs.WithCapacity(16384))
	case cfg.TaskLog:
		tracerOpts = append(tracerOpts, obs.WithCapacity(4096))
	default:
		tracerOpts = append(tracerOpts, obs.WithoutRing())
	}
	if cfg.TaskLog {
		tracerOpts = append(tracerOpts, obs.WithTaskLog())
	}
	opts := []core.Option{core.WithTracer(obs.New(tracerOpts...))}
	if cfg.Isolcheck {
		s.chk = isolcheck.New()
		opts = append(opts, core.WithMonitor(s.chk))
	}
	opts = append(opts, cfg.Opts...) // caller options win (e.g. a shared tracer)

	s.rt = core.NewRuntime(mk(), cfg.Par, opts...)
	s.tr = s.rt.Tracer()
	if s.chk != nil {
		s.chk.SetTracer(s.tr)
	}
	s.st = newStore(cfg.Shards, cfg.Keys)
	s.st.reg.SetTracer(s.tr)
	s.cache = NewEffectCache(cfg.EffCacheMax)
	s.cache.SetInterner(s.rt.Interner())

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.rt.Shutdown()
		return nil, err
	}
	s.ln = ln
	s.acceptWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ShardID returns the configured cluster shard id, -1 when standalone.
func (s *Server) ShardID() int { return s.cfg.ShardID }

// AdvertiseAddr returns the address the server publishes to the control
// plane: Config.Advertise, or the bound listen address when unset.
func (s *Server) AdvertiseAddr() string {
	if s.cfg.Advertise != "" {
		return s.cfg.Advertise
	}
	return s.Addr()
}

// Tracer returns the runtime's (effective) tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tr }

// Metrics returns the service-layer metric set.
func (s *Server) Metrics() *Metrics { return &s.m }

// reqTracer returns the tracer for request-phase stamping, or nil when
// request tracing is off (the codecs key their stamping off nil).
func (s *Server) reqTracer() *obs.Tracer {
	if s.cfg.ReqTrace {
		return s.tr
	}
	return nil
}

// Violations returns the isolation oracle's findings (nil when the
// checker is disabled — or when isolation held, which is the theorem).
func (s *Server) Violations() []isolcheck.Violation {
	if s.chk == nil {
		return nil
	}
	return s.chk.Violations()
}

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain)
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		sess := newSession(s, s.nextSID, conn)
		s.nextSID++
		s.live[sess] = struct{}{}
		s.sessWg.Add(1)
		s.mu.Unlock()
		s.m.ConnsAccepted.Add(1)
		sess.start()
	}
}

// sessionDone retires a session once its writer has resolved every
// future it submitted, so sess.ops is final; only that count outlives
// the session, which is then garbage.
func (s *Server) sessionDone(sess *session) {
	s.mu.Lock()
	delete(s.live, sess)
	s.doneOps += sess.ops
	s.mu.Unlock()
	s.m.ConnsClosed.Add(1)
	s.sessWg.Done()
}

// Stats snapshots the server counters for the stats op and the CLIs.
func (s *Server) Stats() StatsBody {
	s.mu.Lock()
	sessions := int64(len(s.live))
	s.mu.Unlock()
	hits, misses := s.cache.Stats()
	return StatsBody{
		Sched:         s.schedName,
		Shards:        s.cfg.Shards,
		Keys:          s.cfg.Keys,
		Sessions:      sessions,
		ConnsAccepted: s.m.ConnsAccepted.Load(),
		Disconnects:   s.m.Disconnects.Load(),
		Requests:      s.m.Requests.Load(),
		Served:        s.m.Served.Load(),
		Shed:          s.m.Shed.Load(),
		Busy:          s.m.Busy.Load(),
		Cancelled:     s.m.Cancelled.Load(),
		Rejected:      s.m.Rejected.Load(),
		Errors:        s.m.Errors.Load(),
		ControlOps:    s.m.ControlOps.Load(),
		Batches:       s.m.Batches.Load(),
		BatchedOps:    s.m.BatchedOps.Load(),
		EffHits:       hits,
		EffMisses:     misses,
		Inflight:      s.m.Inflight(),
		InflightPeak:  s.m.InflightPeak(),
		V1Conns:       s.m.V1Conns.Load(),
		V2Conns:       s.m.V2Conns.Load(),
		EffRegs:       s.m.EffRegs.Load(),
	}
}

// WriteMetrics emits the full Prometheus exposition: the runtime's twe_*
// families followed by the service's twe_serve_* families.
func (s *Server) WriteMetrics(w io.Writer) error {
	// The interner occupancy gauge is sampled, not event-driven; refresh
	// it so every scrape sees the live value.
	s.tr.Metrics().SetInternerResident(s.rt.Interner().Resident())
	if _, err := s.tr.Metrics().WriteTo(w); err != nil {
		return err
	}
	if _, err := s.m.WriteTo(w); err != nil {
		return err
	}
	// Shard identity for the cluster control plane (DESIGN.md §16): the
	// stable shard id as the gauge value (-1 = standalone) and the
	// advertised address as a label, so a scrape alone identifies the
	// fleet member.
	_, err := fmt.Fprintf(w,
		"# HELP twe_serve_shard_id Cluster shard identity (-1 = standalone); the addr label is the advertised address.\n"+
			"# TYPE twe_serve_shard_id gauge\ntwe_serve_shard_id{addr=%q} %d\n",
		s.AdvertiseAddr(), s.cfg.ShardID)
	return err
}

// Drain gracefully shuts the server down: stop accepting, unstick every
// session's reader (already-buffered frames are still served), wait for
// all in-flight work to resolve and responses to flush, shut the runtime
// down, then audit the final state — quiesced runtime, zero in-flight,
// clean isolation oracle, and exact served accounting (the sum of
// store-visible ops across sessions must equal the Served counter:
// every effect a shed/cancelled task held was released without a write).
func (s *Server) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	s.draining.Store(true)
	s.ln.Close()
	s.acceptWg.Wait()

	s.mu.Lock()
	for sess := range s.live {
		sess.conn.SetReadDeadline(time.Now()) // wake the reader
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.sessWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		return fmt.Errorf("svc: drain timed out after %v (%d session(s) still live)", timeout, func() int {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.live)
		}())
	}
	s.rt.Shutdown()

	var probs []string
	if !s.rt.Quiesced() {
		probs = append(probs, "runtime not quiesced")
	}
	if n := s.m.Inflight(); n != 0 {
		probs = append(probs, fmt.Sprintf("in-flight gauge leaked: %d", n))
	}
	if s.chk != nil {
		if v := s.chk.Violations(); len(v) > 0 {
			probs = append(probs, fmt.Sprintf("%d isolation violation(s), first: %v", len(v), v[0]))
		}
	}
	s.mu.Lock()
	ops := s.doneOps
	s.mu.Unlock()
	if served := s.m.Served.Load(); ops+s.m.PureHolds.Load() != served {
		probs = append(probs, fmt.Sprintf("served accounting mismatch: store ops %d != served %d", ops, served))
	}
	if len(probs) > 0 {
		return fmt.Errorf("svc: dirty drain: %v", probs)
	}
	return nil
}
