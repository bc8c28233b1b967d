package svc

import (
	"encoding/json"
	"net/http"

	"twe/internal/obs"
)

// DebugSnapshot is the /debug/twe payload (DESIGN.md §14): one JSON
// document answering "what is the server doing and which effects are
// hot" — live connection split, admission queue and in-flight gauges,
// effect-intern occupancy across live v2 connections, and the top-K hot
// effect subtrees of the contention profile.
type DebugSnapshot struct {
	Sched    string `json:"sched"`
	ReqTrace bool   `json:"req_trace"`

	// Cluster identity (DESIGN.md §16): the stable shard id (-1 when
	// standalone) and the advertised listen address. The router's health
	// prober keys on these to verify it is talking to the member it
	// thinks it is.
	ShardID int    `json:"shard_id"`
	Addr    string `json:"addr"`

	// HeldPrepares counts cross-shard holds currently parked between
	// prepare and commit/abort, summed over live sessions.
	HeldPrepares int `json:"held_prepares"`

	Conns struct {
		Live    int64 `json:"live"`
		V1Live  int64 `json:"v1_live"`
		V2Live  int64 `json:"v2_live"`
		V1Total int64 `json:"v1_total"`
		V2Total int64 `json:"v2_total"`
	} `json:"conns"`

	Inflight       int64 `json:"inflight"`
	InflightPeak   int64 `json:"inflight_peak"`
	QueueDepth     int64 `json:"queue_depth"` // scheduler: submitted, not yet enabled
	QueueDepthPeak int64 `json:"queue_depth_peak"`
	RespQueued     int   `json:"resp_queued"` // responses owed, summed over live sessions

	// Admit splits effectful admissions between the lock-free fast path
	// and the locked slow path (DESIGN.md §17); a healthy conflict-free
	// steady state shows fastpath ≫ slowpath. PoolSteals counts tasks a
	// pool worker took from a sibling's deque; PoolParks and PoolWakeups
	// count workers parking idle and being woken for new work, so
	// wake-ups per op read straight off two scrapes.
	Admit struct {
		Fastpath uint64 `json:"fastpath"`
		Slowpath uint64 `json:"slowpath"`
	} `json:"admit"`
	PoolSteals  uint64 `json:"pool_steals"`
	PoolParks   uint64 `json:"pool_parks"`
	PoolWakeups uint64 `json:"pool_wakeups"`

	// Interner is the runtime effect-interner occupancy (§17): resident
	// out of cap fully specified RPLs holding integer comparison ids.
	Interner struct {
		Resident int64 `json:"resident"`
		Cap      int   `json:"cap"`
	} `json:"interner"`

	EffectTables struct {
		Conns    int   `json:"conns"`    // live v2 connections (tables)
		Resident int64 `json:"resident"` // occupied slots, summed
		Regs     int64 `json:"regs"`     // lifetime registrations, summed over live conns
	} `json:"effect_tables"`

	// Contention is the stall-time profile by RPL prefix. It is fed by
	// wait-for attribution, which only a tracer with an event ring
	// records: all zero on a daemon started without -req-trace (or
	// -trace, -eventlog, -trace-events).
	Contention struct {
		TotalStallNS int64                 `json:"total_stall_ns"`
		Observations int64                 `json:"observations"`
		Top          []obs.ContentionEntry `json:"top"`
	} `json:"contention"`

	// TraceEvents counts the events retained in the tracer ring; 0 on a
	// default daemon, which builds no ring (Config.TraceEvents).
	TraceEvents  int    `json:"trace_events"`
	TraceDropped uint64 `json:"trace_dropped"`
}

// DebugSnapshot gathers the current state; topK bounds the contention
// entries (10 is a sensible default).
func (s *Server) DebugSnapshot(topK int) DebugSnapshot {
	var d DebugSnapshot
	d.Sched = s.schedName
	d.ReqTrace = s.cfg.ReqTrace
	d.ShardID = s.cfg.ShardID
	d.Addr = s.AdvertiseAddr()
	d.Conns.V1Live = s.m.V1Live.Load()
	d.Conns.V2Live = s.m.V2Live.Load()
	d.Conns.Live = d.Conns.V1Live + d.Conns.V2Live
	d.Conns.V1Total = s.m.V1Conns.Load()
	d.Conns.V2Total = s.m.V2Conns.Load()
	d.Inflight = s.m.Inflight()
	d.InflightPeak = s.m.InflightPeak()

	ms := s.tr.Metrics().Snapshot()
	d.QueueDepth = ms.QueueDepth
	d.QueueDepthPeak = ms.QueueDepthPeak
	d.Admit.Fastpath = ms.AdmitFastpath
	d.Admit.Slowpath = ms.AdmitSlowpath
	d.PoolSteals = ms.PoolSteals
	d.PoolParks = ms.PoolParks
	d.PoolWakeups = ms.PoolWakeups
	d.Interner.Resident = s.rt.Interner().Resident()
	d.Interner.Cap = s.rt.Interner().Cap()

	s.mu.Lock()
	for sess := range s.live {
		d.RespQueued += len(sess.q)
		d.HeldPrepares += sess.heldPrepares()
		if v2c := sess.v2c.Load(); v2c != nil {
			tbl := v2c.Table()
			d.EffectTables.Conns++
			d.EffectTables.Resident += tbl.resident.Load()
			d.EffectTables.Regs += tbl.Registrations()
		}
	}
	s.mu.Unlock()

	cont := s.tr.Contention()
	d.Contention.TotalStallNS, d.Contention.Observations = cont.Total()
	d.Contention.Top = cont.TopK(topK)

	d.TraceEvents = s.tr.Len()
	d.TraceDropped = s.tr.Dropped()
	return d
}

// DebugHandler returns the /debug/twe HTTP handler: a JSON DebugSnapshot
// per GET. topK ≤ 0 defaults to 10.
func (s *Server) DebugHandler(topK int) http.Handler {
	if topK <= 0 {
		topK = 10
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.DebugSnapshot(topK))
	})
}
