// Package server is an expressiveness workload for the second domain the
// paper's introduction motivates (§1.1): "Servers use concurrency to
// respond to multiple client requests... A server may also combine
// concurrency used to handle multiple client requests with parallelism
// that may be needed to quickly process an individual request."
//
// The server owns a sharded key-value store (shard k in region
// "Shard:[k]") plus per-session state ("Session:[id]"). Client requests
// arrive as asynchronous tasks:
//
//   - Put(key, value): a task with effect "writes Shard:[k]" for the key's
//     shard;
//   - Get(key): "reads Shard:[k]";
//   - Scan(): an analytics request that fans out one spawned child per
//     shard ("reads Shard:[k]") under a parent with "reads Shard:*" —
//     structured parallelism inside one request;
//   - per-request session accounting under "writes Session:[id]".
//
// No locks appear anywhere; the effect scheduler serializes exactly the
// conflicting pairs (same-shard writes, scans vs writes) and overlaps the
// rest. Results are validated against a sequential replay of the same
// request log.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/rpl"
)

// Config sizes the workload.
type Config struct {
	Shards    int
	Keys      int
	Sessions  int
	Requests  int
	ScanEvery int // every n-th request is a full scan
	Seed      int64
	// Deadline, when positive, bounds each request's queue-plus-service
	// time: requests are submitted with a per-task deadline and shed
	// (resolved with ErrDeadlineExceeded) if they cannot start in time —
	// an overloaded server drops stale work instead of serving it late.
	// Zero keeps the unbounded behavior.
	Deadline time.Duration
}

// DefaultConfig returns a contended mixed workload.
func DefaultConfig() Config {
	return Config{Shards: 8, Keys: 256, Sessions: 16, Requests: 2000, ScanEvery: 50, Seed: 31}
}

// Request is one log entry.
type Request struct {
	Session int
	Kind    byte // 'P'ut, 'G'et, 'S'can
	Key     int
	Value   int
}

// GenerateLog builds a deterministic request log.
func GenerateLog(cfg Config) []Request {
	rnd := rand.New(rand.NewSource(cfg.Seed))
	log := make([]Request, cfg.Requests)
	for i := range log {
		r := Request{Session: rnd.Intn(cfg.Sessions)}
		switch {
		case cfg.ScanEvery > 0 && i%cfg.ScanEvery == cfg.ScanEvery-1:
			r.Kind = 'S'
		case rnd.Intn(2) == 0:
			r.Kind = 'P'
			r.Key = rnd.Intn(cfg.Keys)
			r.Value = rnd.Intn(1000)
		default:
			r.Kind = 'G'
			r.Key = rnd.Intn(cfg.Keys)
		}
		log[i] = r
	}
	return log
}

// Server is the TWE key-value server.
type Server struct {
	cfg Config
	rt  *core.Runtime

	shards   [][]int // shards[k][i]: values; unsynchronized, region Shard:[k]
	sessions []sessionState
}

type sessionState struct {
	Requests int
	LastScan int
}

// New builds a server on the runtime.
func New(cfg Config, rt *core.Runtime) *Server {
	s := &Server{cfg: cfg, rt: rt}
	s.shards = make([][]int, cfg.Shards)
	perShard := (cfg.Keys + cfg.Shards - 1) / cfg.Shards
	for k := range s.shards {
		s.shards[k] = make([]int, perShard)
	}
	s.sessions = make([]sessionState, cfg.Sessions)
	return s
}

func (s *Server) shardOf(key int) (shard, slot int) {
	return key % s.cfg.Shards, key / s.cfg.Shards
}

func shardRegion(k int) rpl.RPL { return rpl.New(rpl.N("Shard"), rpl.Idx(k)) }

func sessionRegion(id int) rpl.RPL { return rpl.New(rpl.N("Session"), rpl.Idx(id)) }

// dispatch submits a request task, with the configured per-request
// deadline when load shedding is enabled.
func (s *Server) dispatch(t *core.Task) *core.Future {
	if s.cfg.Deadline > 0 {
		return s.rt.Submit(t, core.WithDeadline(s.cfg.Deadline))
	}
	return s.rt.ExecuteLater(t, nil)
}

// Submit dispatches one request asynchronously (the event-driven half) and
// returns its future. The response value is the Get result, the scan sum,
// or nil for Put.
func (s *Server) Submit(r Request) *core.Future {
	switch r.Kind {
	case 'P':
		shard, slot := s.shardOf(r.Key)
		return s.dispatch(&core.Task{
			Name: fmt.Sprintf("put[s%d]", shard),
			Eff: effect.NewSet(
				effect.WriteEff(shardRegion(shard)),
				effect.WriteEff(sessionRegion(r.Session))),
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err // shed: deadline expired before service
				}
				s.shards[shard][slot] = r.Value
				s.sessions[r.Session].Requests++
				return nil, nil
			},
		})
	case 'G':
		shard, slot := s.shardOf(r.Key)
		return s.dispatch(&core.Task{
			Name: fmt.Sprintf("get[s%d]", shard),
			Eff: effect.NewSet(
				effect.Read(shardRegion(shard)),
				effect.WriteEff(sessionRegion(r.Session))),
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				s.sessions[r.Session].Requests++
				return s.shards[shard][slot], nil
			},
		})
	default: // 'S': parallel scan within one request
		return s.dispatch(&core.Task{
			Name: "scan",
			Eff: effect.NewSet(
				effect.Read(rpl.New(rpl.N("Shard"), rpl.Any)),
				// The whole session subtree: the request's own accounting
				// lives at Session:[id] and each spawned shard reader gets
				// the per-request scratch region Session:[id]:[k].
				effect.WriteEff(sessionRegion(r.Session).Append(rpl.Any))),
			Body: func(ctx *core.Ctx, _ any) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				partial := make([]int, s.cfg.Shards)
				var sfs []*core.SpawnedFuture
				for k := 0; k < s.cfg.Shards; k++ {
					k := k
					sf, err := ctx.Spawn(&core.Task{
						Name: fmt.Sprintf("scanShard[%d]", k),
						Eff: effect.NewSet(
							effect.Read(shardRegion(k)),
							effect.WriteEff(rpl.New(rpl.N("Session"), rpl.Idx(r.Session), rpl.Idx(k)))),
						Body: func(_ *core.Ctx, _ any) (any, error) {
							sum := 0
							for _, v := range s.shards[k] {
								sum += v
							}
							partial[k] = sum
							return nil, nil
						},
					}, nil)
					if err != nil {
						return nil, err
					}
					sfs = append(sfs, sf)
				}
				for _, sf := range sfs {
					if _, err := ctx.Join(sf); err != nil {
						return nil, err
					}
				}
				total := 0
				for _, p := range partial {
					total += p
				}
				s.sessions[r.Session].Requests++
				s.sessions[r.Session].LastScan = total
				return total, nil
			},
		})
	}
}

// Result summarizes a run for validation.
type Result struct {
	Shards       [][]int
	SessionReqs  []int
	GetResponses []int
	ScanTotals   []int
	// Shed counts requests dropped by deadline load shedding. A shed
	// request performs no accesses at all, so with Deadline > 0 the
	// served/shed split partitions the log exactly:
	// sum(SessionReqs) + Shed == len(log).
	Shed int
}

// RunTWE submits the whole log asynchronously with a bounded in-flight
// window, then waits for every response.
func RunTWE(cfg Config, log []Request, mkSched func() core.Scheduler, par, window int, opts ...core.Option) (*Result, error) {
	rt := core.NewRuntime(mkSched(), par, opts...)
	defer rt.Shutdown()
	s := New(cfg, rt)
	if window <= 0 {
		window = 64
	}
	futs := make([]*core.Future, len(log))
	for i := range log {
		futs[i] = s.Submit(log[i])
		if i >= window {
			if _, err := rt.GetValue(futs[i-window]); err != nil && !s.shedable(err) {
				return nil, err
			}
		}
	}
	return s.collect(log, futs)
}

// shedable reports whether err is a deadline shed under load shedding.
func (s *Server) shedable(err error) bool {
	return s.cfg.Deadline > 0 && errors.Is(err, core.ErrDeadlineExceeded)
}

// collect waits for the response to every log entry (futs[i] serves
// log[i]) and summarizes the run.
func (s *Server) collect(log []Request, futs []*core.Future) (*Result, error) {
	res := &Result{SessionReqs: make([]int, s.cfg.Sessions)}
	for i, f := range futs {
		v, err := s.rt.GetValue(f)
		if err != nil {
			if s.shedable(err) {
				res.Shed++
				continue
			}
			return nil, err
		}
		switch log[i].Kind {
		case 'G':
			res.GetResponses = append(res.GetResponses, v.(int))
		case 'S':
			res.ScanTotals = append(res.ScanTotals, v.(int))
		}
	}
	res.Shards = s.shards
	for i := range s.sessions {
		res.SessionReqs[i] = s.sessions[i].Requests
	}
	return res, nil
}

// RunSeq replays the log sequentially; the oracle for final state and for
// session accounting. (Individual Get/Scan responses depend on request
// interleaving in the concurrent run and are validated only for the
// sequential-window case.)
func RunSeq(cfg Config, log []Request) *Result {
	shards := make([][]int, cfg.Shards)
	perShard := (cfg.Keys + cfg.Shards - 1) / cfg.Shards
	for k := range shards {
		shards[k] = make([]int, perShard)
	}
	res := &Result{Shards: shards, SessionReqs: make([]int, cfg.Sessions)}
	for _, r := range log {
		res.SessionReqs[r.Session]++
		switch r.Kind {
		case 'P':
			shards[r.Key%cfg.Shards][r.Key/cfg.Shards] = r.Value
		case 'G':
			res.GetResponses = append(res.GetResponses, shards[r.Key%cfg.Shards][r.Key/cfg.Shards])
		case 'S':
			total := 0
			for _, sh := range shards {
				for _, v := range sh {
					total += v
				}
			}
			res.ScanTotals = append(res.ScanTotals, total)
		}
	}
	return res
}
