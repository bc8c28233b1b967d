package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"time"

	"twe/internal/cluster"
	"twe/internal/obs"
	"twe/internal/svc"
)

// memberScrape is everything one twe-serve's debug mux says at one
// instant: /metrics, /debug/twe and the memstats of /debug/vars.
type memberScrape struct {
	prom  promSample
	debug svc.DebugSnapshot
	mem   struct {
		Mallocs      float64
		PauseTotalNs float64
	}
}

type fleetScrape []memberScrape

func (s *serveSystem) scrape() (fleetScrape, error) {
	var out fleetScrape
	for _, base := range s.memberHTTP {
		var m memberScrape
		b, err := httpGet(base + "/metrics")
		if err != nil {
			return nil, err
		}
		m.prom = parseProm(b)
		if err := httpGetJSON(base+"/debug/twe", &m.debug); err != nil {
			return nil, err
		}
		var vars struct {
			Memstats *struct {
				Mallocs      float64
				PauseTotalNs float64
			} `json:"memstats"`
		}
		if err := httpGetJSON(base+"/debug/vars", &vars); err != nil {
			return nil, err
		}
		if vars.Memstats != nil {
			m.mem = *vars.Memstats
		}
		out = append(out, m)
	}
	return out, nil
}

// sum adds one series over the fleet; peak takes its maximum.
func (f fleetScrape) sum(series string) float64 {
	var v float64
	for _, m := range f {
		v += m.prom[series]
	}
	return v
}

func (f fleetScrape) peak(series string) float64 {
	var v float64
	for _, m := range f {
		v = max(v, m.prom[series])
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func p50US(samples []uint32) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return percentile(s, 0.5) / 1e3
}

// schedCounters is what a runtime's own counters say about the measured
// phases, whichever way they were read: scraped from a child's endpoints
// or snapshotted from the in-process tracer.
type schedCounters struct {
	// Deltas over sat+solo.
	fast, slow, checks, hits, visits, steals, blocks, transfers, stallNS float64
	// Levels at the end of solo.
	queuePeak, workers, runningPeak, interner float64
}

// fill turns the counters into the tree.*, pool.* and core.* rows.
func (c schedCounters) fill(out map[string]float64, ops float64) {
	kops := ops / 1000
	out["tree.fast_admits"], out["tree.slow_admits"] = c.fast, c.slow
	out["tree.fastpath_ratio"] = ratio(c.fast, c.fast+c.slow)
	out["tree.conflict_checks_per_op"] = ratio(c.checks, ops)
	out["tree.conflict_hit_ratio"] = ratio(c.hits, c.checks)
	out["tree.node_visits_per_op"] = ratio(c.visits, ops)
	out["tree.queue_depth_peak"] = c.queuePeak
	out["tree.stall_ns_per_op"] = ratio(c.stallNS, ops)
	out["pool.steals_per_kop"] = ratio(c.steals, kops)
	out["pool.workers_started"] = c.workers
	out["pool.running_peak"] = c.runningPeak
	out["core.blocks_per_kop"] = ratio(c.blocks, kops)
	out["core.transfers_per_kop"] = ratio(c.transfers, kops)
	out["effect.interner_resident"] = c.interner
}

// ladder saturates the workload on every registered scheduler, untraced,
// through run; the default scheduler's rate is also the base of the
// tracing overhead.
func ladder(out map[string]float64, res *runResult, tracedRate float64, run func(name string) (rate, stalled float64)) {
	for _, name := range schedNames {
		rate, stalled := run(name)
		out["sched."+name+".ops_s"] = rate
		out["sched."+name+".stalled"] = stalled
		if stalled > 0 {
			res.note("scheduler %s stalled under this workload (rate before the stall: %.0f ops/s)", name, rate)
		}
	}
	out["svc.trace_overhead_ratio"] = ratio(tracedRate, out["sched.tree.ops_s"])
}

// finishTraced writes the spans out and closes a traced run.
func (r *runResult) finishTraced(e *env, out map[string]float64, spans []span, sat, solo phaseStats) *runResult {
	if err := e.writeSpans(r.Workload, spans); err != nil {
		r.note("trace file: %v", err)
	}
	r.set(perLayer, out)
	r.latencyNotes(sat, solo)
	r.finish()
	return r
}

// runServeTraced is the per-layer run of a serve workload: the same
// traffic on -req-trace children with client trace ids on, endpoints
// scraped around the phases, then the scheduler ladder and the
// single-threaded layer timings.
func runServeTraced(e *env, spec *workloadSpec, cfg runConfig) *runResult {
	res := newRunResult(spec, cfg)
	base := time.Now()
	out := map[string]float64{"harness.build_s": e.buildS}
	sys, warm, _, err := setupServe(e, spec, cfg, base)
	if err != nil {
		return res.abort(perLayer, "set-up: %v", err)
	}
	res.addPhase(warm)
	if sys.stalled() {
		sys.stop(0)
		return res.abort(perLayer, "the system stopped answering during warm-up")
	}
	m0, err := sys.scrape()
	if err != nil {
		sys.kill()
		return res.abort(perLayer, "scrape: %v", err)
	}
	sat := sys.runRecorded(phase{name: "sat", window: satWindow, dur: cfg.satDur(), watchdog: watchdog}, cfg.seed)
	res.addPhase(sat)
	m1, err := sys.scrape()
	if err != nil {
		sys.kill()
		return res.abort(perLayer, "scrape: %v", err)
	}
	kinds := make([]*[numOpKinds][]uint32, len(sys.clients))
	for i, w := range sys.clients {
		kinds[i] = new([numOpKinds][]uint32)
		w.kindRec = kinds[i]
	}
	solo := sys.runRecorded(phase{name: "solo", window: soloWindow, dur: cfg.soloDur(), watchdog: watchdog}, cfg.seed+100)
	res.addPhase(solo)
	m2, err := sys.scrape()
	if err != nil {
		sys.kill()
		return res.abort(perLayer, "scrape: %v", err)
	}
	if !sys.stalled() {
		res.Failed += sys.audit(res)
	}

	ops := float64(sat.ok + solo.ok)
	kops := ops / 1000
	delta := func(series string) float64 { return m2.sum(series) - m0.sum(series) }

	// Scheduler, pool and core counters over sat+solo.
	var stall float64
	for i := range m2 {
		stall += float64(m2[i].debug.Contention.TotalStallNS - m0[i].debug.Contention.TotalStallNS)
	}
	schedCounters{
		fast: delta("twe_admit_fastpath_total"), slow: delta("twe_admit_slowpath_total"),
		checks: delta("twe_conflict_checks_total"), hits: delta("twe_conflict_hits_total"),
		visits: delta("twe_tree_node_visits_total"), steals: delta("twe_pool_steals_total"),
		blocks: delta("twe_blocks_total"), transfers: delta("twe_effect_transfers_total"), stallNS: stall,
		queuePeak: m2.peak("twe_sched_queue_depth_peak"), workers: m2.sum("twe_pool_workers_started_total"),
		runningPeak: m2.peak("twe_pool_running_peak"), interner: m2.sum("twe_interner_resident"),
	}.fill(out, ops)
	out["dyneff.retries_per_kop"] = ratio(delta("twe_dyneff_retries_total"), kops)
	out["cluster.aborts"] = delta("twe_serve_aborts_total")

	// Server-side phase means over the solo phase, and the share of the
	// client-observed solo latency no phase accounts for. recv is left out
	// of the covered sum: the server starts that clock when it begins
	// waiting for the next frame, so at window 1 it is mostly idle time.
	var covered float64
	for _, ph := range []string{"recv", "decode", "wait", "exec", "respond"} {
		sum := fmt.Sprintf("twe_serve_phase_seconds_sum{phase=%q}", ph)
		cnt := fmt.Sprintf("twe_serve_phase_seconds_count{phase=%q}", ph)
		us := ratio(m2.sum(sum)-m1.sum(sum), m2.sum(cnt)-m1.sum(cnt)) * 1e6
		out["svc.phase_"+ph+"_us"] = us
		if ph != "recv" {
			covered += us
		}
	}
	if solo.MeanUS > 0 {
		out["svc.phase_residual_ratio"] = 1 - covered/solo.MeanUS
	}
	var mallocs, pause float64
	for i := range m2 {
		mallocs += m2[i].mem.Mallocs - m0[i].mem.Mallocs
		pause += m2[i].mem.PauseTotalNs - m0[i].mem.PauseTotalNs
	}
	out["svc.allocs_per_req"] = ratio(mallocs, ops)
	out["svc.gc_pause_ms"] = pause / 1e6

	// Stats frames: effect cache and table, in-flight peak.
	var hits, misses, regs, peak float64
	for _, addr := range sys.memberAddrs {
		if st, err := fetchStats(addr); err == nil {
			hits, misses, regs = hits+float64(st.EffHits), misses+float64(st.EffMisses), regs+float64(st.EffRegs)
			peak = max(peak, float64(st.InflightPeak))
		}
	}
	out["svc.effcache_hit_ratio"] = ratio(hits, hits+misses)
	out["svc.eff_regs"] = regs
	out["svc.inflight_peak"] = peak
	out["svc.stale_reads"] = float64(res.Stale)

	var adds, scans, plain []uint32
	for _, k := range kinds {
		adds = append(adds, k[opAdd]...)
		scans = append(scans, k[opScan]...)
		plain = append(append(plain, k[opPut]...), k[opGet]...)
	}
	out["dyneff.add_solo_p50_us"] = p50US(adds)

	out["loadgen.cpu_ms_per_kop"] = perKop(sat.loadgenMS, sat.ok)
	out["loadgen.reconnects"] = float64(warm.reconnects + sat.reconnects + solo.reconnects)

	if spec.Cluster {
		sys.clusterMetrics(out, res, cfg, sat, plain, scans)
	}
	if dirty := sys.stop(drainGrace); dirty > 0 {
		res.Failed += dirty
		res.note("%d daemon(s) did not exit 0 from a SIGTERM drain", dirty)
	}

	ladder(out, res, sat.OpsPerSec, func(name string) (float64, float64) { return ladderServe(e, spec, cfg, name) })

	lt := &layerTimer{base: base, out: out}
	in, err := serveLayerInputs(spec, cfg.seed)
	if err == nil {
		lt.relationTimings(in)
		if spec.Cluster { // no router on the other workloads' path
			lt.routeTiming(in)
		}
		err = lt.admissionTimings(in)
	}
	if err == nil {
		err = lt.codecTimings(in, svc.ProtoV1, "svc.v1")
	}
	if err == nil {
		err = lt.codecTimings(in, svc.ProtoV2, "svc.v2")
	}
	if err != nil {
		res.note("layer timings: %v", err)
		res.Failed++
	}

	spans := lt.spans
	for _, w := range sys.clients {
		spans = append(spans, w.spans...)
	}
	res.note("traced sat %.0f ops/s, solo mean %.1f us of which decode+wait+exec+respond cover %.1f us", sat.OpsPerSec, solo.MeanUS, covered)
	return res.finishTraced(e, out, spans, sat.phaseStats, solo.phaseStats)
}

// clusterMetrics fills the cluster.* rows: the router's ledger from
// /cluster, the per-process CPU split, and the cost of the hop and of a
// 2pc round as the difference between the same ops sent through the
// router and sent straight to a member. It must run after audit: the
// direct ops bypass the router's ledger on purpose.
func (s *serveSystem) clusterMetrics(out map[string]float64, res *runResult, cfg runConfig, sat phaseResult, viaPlain, viaScan []uint32) {
	snap, err := cluster.FetchSnapshot(s.controlURL)
	if err != nil {
		res.note("/cluster: %v", err)
		return
	}
	var fwd, prep, served, most float64
	for _, m := range snap.Members {
		fwd += float64(m.Fwd)
		prep += float64(m.Prep)
		if m.Stats != nil {
			served += float64(m.Stats.Served)
			most = max(most, float64(m.Stats.Served))
		}
	}
	routed := float64(snap.Router.Requests) / 1000
	out["cluster.fwd_per_kop"] = ratio(fwd, routed)
	out["cluster.prep_per_kop"] = ratio(prep, routed)
	out["cluster.member_imbalance"] = ratio(most, served/float64(len(snap.Members)))
	out["cluster.router_cpu_ms_per_kop"] = perKop(sat.cpuMS[0], sat.ok)
	var members float64
	for _, c := range sat.cpuMS[1:] {
		members += c
	}
	out["cluster.member_cpu_ms_per_kop"] = perKop(members, sat.ok)

	direct := newWireClient(0, s.memberAddrs[0], s.spec.Proto, newServePlan(cfg.seed+1000, 0, s.spec.Mix), time.Now())
	direct.owned = [storeKeys]bool{} // the keys already hold the routed clients' values
	if err := direct.dial(); err != nil {
		res.note("direct probe: %v", err)
		return
	}
	defer direct.close()
	var kinds [numOpKinds][]uint32
	direct.kindRec = &kinds
	t := direct.run(phase{name: "direct", window: soloWindow, dur: time.Second, watchdog: watchdog}, nil, time.Now())
	res.Attempted += t.sent
	res.Failed += t.failed
	out["cluster.hop_us"] = p50US(viaPlain) - p50US(append(kinds[opPut], kinds[opGet]...))
	out["cluster.twopc_round_us"] = p50US(viaScan) - p50US(kinds[opScan])
}

// ladderServe saturates spec on one scheduler for the ladder's slot and
// returns the rate and whether the system stopped answering.
func ladderServe(e *env, spec *workloadSpec, cfg runConfig, name string) (rate, stalled float64) {
	const patience = 2 * time.Second // a healthy daemon answers in milliseconds
	c := cfg
	c.sched, c.traced = name, false
	sys, err := startServe(e, spec, name, false)
	if err != nil {
		return 0, 1
	}
	if err := sys.connect(c, time.Now()); err != nil {
		sys.kill()
		return 0, 1
	}
	warm := sys.runPhase(phase{name: "warm", window: satWindow, dur: patience, maxOps: warmOps, watchdog: patience})
	sat := sys.runRecorded(phase{name: "ladder", window: satWindow, dur: cfg.ladderDur(), watchdog: patience}, cfg.seed)
	if warm.failed+sat.failed > 0 {
		// It stopped answering; it will not drain either.
		sys.kill()
		return sat.MeanRate, 1
	}
	if sys.stop(patience) > 0 {
		return sat.MeanRate, 1
	}
	return sat.OpsPerSec, 0
}

// ladderChild is what one `-ladder-child` process prints.
type ladderChild struct {
	OpsPerSec float64 `json:"ops_s"`
	Stalled   bool    `json:"stalled"`
}

// ladderChildMain saturates runtime_finegrain on one scheduler and
// prints the rate. It is its own process because a scheduler that stops
// answering leaves submitters spinning inside Submit, and only a process
// can be killed.
func ladderChildMain(name string, seed int64, dur time.Duration, window int) {
	sys, err := newFGSystem(name, nil)
	if err != nil {
		fatalf("%v", err)
	}
	subs := make([]*fgSubmitter, numClients)
	for i := range subs {
		subs[i] = newFGSubmitter(i, sys, seed, false, time.Now())
		subs[i].done = make(chan *fgDone, window)
	}
	const patience = 2 * time.Second
	warm := runFGPhase(subs, phase{name: "warm", window: window, dur: patience, maxOps: fgWarmOps, watchdog: patience})
	var res ladderChild
	if warm.stalled {
		res.Stalled = true
	} else {
		sat := runFGRecorded(subs, phase{name: "ladder", window: window, dur: dur, watchdog: patience}, seed)
		res.OpsPerSec, res.Stalled = sat.OpsPerSec, sat.stalled
		if sat.stalled {
			res.OpsPerSec = float64(sat.ok) / dur.Seconds()
		}
	}
	b, _ := json.Marshal(res) // a struct of a float and a bool always marshals
	fmt.Println(string(b))
}

// ladderFinegrain runs one ladder child and reads its line; a child
// that outlives its slot by far is killed and counted as stalled.
func ladderFinegrain(cfg runConfig, name string, window int) (rate, stalled float64) {
	self, err := os.Executable()
	if err != nil {
		return 0, 1
	}
	dur := cfg.ladderDur()
	ctx, cancel := context.WithTimeout(context.Background(), dur+10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, self, "-ladder-child", name, "-seed", fmt.Sprint(cfg.seed),
		"-ladder-ms", fmt.Sprint(dur.Milliseconds()), "-window", fmt.Sprint(window)).Output()
	var res ladderChild
	if err != nil || json.Unmarshal(bytes.TrimSpace(out), &res) != nil {
		return 0, 1
	}
	if res.Stalled {
		return res.OpsPerSec, 1
	}
	return res.OpsPerSec, 0
}

// runFinegrainTraced is the per-layer run of runtime_finegrain.
func runFinegrainTraced(e *env, spec *workloadSpec, cfg runConfig) *runResult {
	res := newRunResult(spec, cfg)
	base := time.Now()
	out := map[string]float64{"harness.build_s": e.buildS}
	tr := obs.New()
	sys, subs, warm, _, err := setupFinegrain(cfg, tr, base)
	if err != nil {
		return res.abort(perLayer, "set-up: %v", err)
	}
	res.addFGPhase(warm)
	if warm.stalled {
		return res.abort(perLayer, "the runtime stopped answering during warm-up")
	}
	m0 := tr.Metrics().Snapshot()
	stall0, _ := tr.Contention().Total()
	sat := runFGRecorded(subs, phase{name: "sat", window: satWindow, dur: cfg.satDur(), watchdog: watchdog}, cfg.seed)
	res.addFGPhase(sat)
	var solo fgPhaseResult
	if !sat.stalled {
		solo = runFGRecorded(subs, phase{name: "solo", window: soloWindow, dur: cfg.soloDur(), watchdog: watchdog}, cfg.seed+100)
		res.addFGPhase(solo)
	}
	m2 := tr.Metrics().Snapshot()
	stall2, _ := tr.Contention().Total()
	healthy := !sat.stalled && !solo.stalled
	if healthy {
		sys.rt.Shutdown()
		res.Failed += sys.verify(subs, res)
	}

	d := func(a, b uint64) float64 { return float64(a - b) }
	schedCounters{
		fast: d(m2.AdmitFastpath, m0.AdmitFastpath), slow: d(m2.AdmitSlowpath, m0.AdmitSlowpath),
		checks: d(m2.ConflictChecks, m0.ConflictChecks), hits: d(m2.ConflictHits, m0.ConflictHits),
		visits: d(m2.TreeNodeVisits, m0.TreeNodeVisits), steals: d(m2.PoolSteals, m0.PoolSteals),
		blocks: d(m2.Blocks, m0.Blocks), transfers: d(m2.Transfers, m0.Transfers), stallNS: float64(stall2 - stall0),
		queuePeak: float64(m2.QueueDepthPeak), workers: float64(m2.WorkersStarted),
		runningPeak: float64(m2.PoolRunningPeak), interner: float64(sys.rt.Interner().Resident()),
	}.fill(out, float64(sat.ok+solo.ok))

	if healthy {
		// Layer timings from the live loop: the Submit call as the caller
		// sees it under contention, Submit → body start, Submit → OnDone.
		var admit, batch, handoff, toDone []float64
		for _, s := range subs {
			admit = append(admit, s.admitNS...)
			batch = append(batch, s.batchAdmitNS...)
			handoff = append(handoff, s.handoffNS...)
			toDone = append(toDone, s.submitToDoneNS...)
		}
		out["tree.admit_ns"] = median(admit)
		out["tree.admit_batch_ns_per_task"] = median(batch)
		out["pool.handoff_ns"] = median(handoff)
		out["core.submit_to_done_ns"] = median(toDone)
	}

	ladder(out, res, sat.OpsPerSec, func(name string) (float64, float64) { return ladderFinegrain(cfg, name, satWindow) })

	lt := &layerTimer{base: base, out: out}
	lt.relationTimings(finegrainLayerInputs(sys, cfg.seed))

	spans := lt.spans
	for _, s := range subs {
		spans = append(spans, s.spans...)
	}
	res.note("traced sat %.0f ops/s", sat.OpsPerSec)
	return res.finishTraced(e, out, spans, sat.phaseStats, solo.phaseStats)
}
