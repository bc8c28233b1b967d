package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"twe/internal/cluster"
	"twe/internal/svc"
)

// runConfig is what one run of one workload is asked to do.
type runConfig struct {
	seed    int64
	seconds int    // measured seconds: cycles of one saturated and one solo window
	traced  bool   // per-layer run instead of the end-to-end one
	sched   string // -sched override for the system under test; "" = its default
}

func (c runConfig) schedOrDefault() string {
	if c.sched == "" {
		return "tree"
	}
	return c.sched
}

// Phase shape shared by every workload (see README "Loop").
const (
	satWindow  = 16
	soloWindow = 1
	warmOps    = 4000 // per client, window 16; also registers the v2 effect refs
	numSetups  = 3    // set-ups per run; setup_s is their median
	watchdog   = 10 * time.Second
	drainGrace = 15 * time.Second // the daemons' own drain bound is 10 s
)

// cycles is how often an end-to-end run alternates one saturated window
// with one solo window. Interleaved, both phases sample the whole run, so
// a disturbance of the host that lasts a few seconds moves a few windows
// of each and the median across windows of neither.
func (c runConfig) cycles() int { return c.seconds / 2 }

// satDur and soloDur are the phases of a traced run, which are contiguous
// (the endpoints are scraped between them) and take half of the run; the
// ladder and the layer timings take the rest.
func (c runConfig) satDur() time.Duration {
	return (time.Duration(c.seconds) * time.Second / 3).Truncate(windowWidth)
}

func (c runConfig) soloDur() time.Duration {
	return max((time.Duration(c.seconds) * time.Second / 6).Truncate(windowWidth), windowWidth)
}

// ladderDur is how long each registered scheduler is saturated in a
// traced run: a third of the run split over the four of them.
func (c runConfig) ladderDur() time.Duration {
	d := time.Duration(c.seconds) * time.Second / 3 / time.Duration(len(schedNames))
	return max(d.Truncate(500*time.Millisecond), time.Second)
}

// serveSystem is one launched system under test and its clients.
type serveSystem struct {
	spec    *workloadSpec
	members []*child
	router  *child

	memberAddrs []string
	memberHTTP  []string // debug mux base URLs; traced launches only
	controlURL  string   // router control plane; cluster only
	addr        string   // where clients connect
	clients     []*wireClient
}

// startServe launches the daemons of spec and waits until they listen.
func startServe(e *env, spec *workloadSpec, sched string, traced bool) (s *serveSystem, err error) {
	s = &serveSystem{spec: spec}
	defer func() {
		if err != nil {
			s.kill()
		}
	}()
	n := 1
	if spec.Cluster {
		n = 2
	}
	e.launches++
	file := func(kind string, i int) string {
		return filepath.Join(e.runDir, fmt.Sprintf("%d-%s-%d", e.launches, kind, i))
	}
	const listenWait = 10 * time.Second
	for i := 0; i < n; i++ {
		args := []string{"-par", fmt.Sprint(spec.Par), "-addr-file", file("addr", i)}
		if spec.Cluster {
			args = append(args, "-shard-id", fmt.Sprint(i))
		}
		if sched != "" {
			args = append(args, "-sched", sched)
		}
		if traced {
			args = append(args, "-req-trace", "-metrics-addr", "127.0.0.1:0", "-metrics-addr-file", file("http", i))
		}
		c, err := e.launch(fmt.Sprintf("twe-serve[%d]", i), "twe-serve", args...)
		if err != nil {
			return nil, err
		}
		s.members = append(s.members, c)
	}
	for i, c := range s.members {
		addr, err := c.waitFile(file("addr", i), listenWait)
		if err != nil {
			return nil, err
		}
		s.memberAddrs = append(s.memberAddrs, addr)
		if traced {
			h, err := c.waitFile(file("http", i), listenWait)
			if err != nil {
				return nil, err
			}
			s.memberHTTP = append(s.memberHTTP, "http://"+h)
		}
	}
	s.addr = s.memberAddrs[0]
	if spec.Cluster {
		if s.router, err = e.launch("twe-router", "twe-router", "-members", strings.Join(s.memberAddrs, ","),
			"-addr-file", file("raddr", 0), "-control-addr", "127.0.0.1:0", "-control-addr-file", file("rctl", 0)); err != nil {
			return nil, err
		}
		if s.addr, err = s.router.waitFile(file("raddr", 0), listenWait); err != nil {
			return nil, err
		}
		ctl, err := s.router.waitFile(file("rctl", 0), listenWait)
		if err != nil {
			return nil, err
		}
		s.controlURL = "http://" + ctl
	}
	return s, nil
}

func (s *serveSystem) children() []*child {
	if s.router != nil {
		return append([]*child{s.router}, s.members...)
	}
	return s.members
}

func (s *serveSystem) kill() {
	for _, c := range s.children() {
		c.kill()
	}
}

// connect dials one client per plan; the plans restart from the seed.
func (s *serveSystem) connect(cfg runConfig, base time.Time) error {
	s.clients = nil
	for c := 0; c < numClients; c++ {
		w := newWireClient(c, s.addr, s.spec.Proto, newServePlan(cfg.seed, c, s.spec.Mix), base)
		w.reconnectEvery, w.traced = s.spec.ReconnectEvery, cfg.traced
		if err := w.dial(); err != nil {
			return err
		}
		s.clients = append(s.clients, w)
	}
	return nil
}

// phaseResult is one phase over all clients.
type phaseResult struct {
	phaseStats
	tally
	cpuMS     []float64 // CPU each child used during the phase, s.children() order
	loadgenMS float64   // CPU the harness itself used during the phase
}

// join folds one slice of an interleaved run into its phase: counts and
// CPU add up. The slices share the phase's recorders, which the caller
// digests once every slice is in.
func (p *phaseResult) join(q phaseResult) {
	p.tally.add(q.tally)
	if p.cpuMS == nil {
		p.cpuMS = make([]float64, len(q.cpuMS))
	}
	for i, c := range q.cpuMS {
		p.cpuMS[i] += c
	}
	p.loadgenMS += q.loadgenMS
}

// runPhase drives every client through ph at once.
func (s *serveSystem) runPhase(ph phase) phaseResult {
	var res phaseResult
	recs := make([]*recorder, len(s.clients))
	copy(recs, ph.recs)
	cpu0, self0 := s.cpuNow(), selfCPUMS()
	tallies := make([]tally, len(s.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, w := range s.clients {
		if recs[i] != nil {
			recs[i].begin(start, ph.firstWin, windowsIn(ph.dur))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[i] = w.run(ph, recs[i], start)
		}()
	}
	wg.Wait()
	res.loadgenMS = selfCPUMS() - self0
	for i, c := range s.cpuNow() {
		res.cpuMS = append(res.cpuMS, c-cpu0[i])
	}
	for _, t := range tallies {
		res.tally.add(t)
	}
	return res
}

// runRecorded runs a contiguous phase on recorders of its own and
// digests them.
func (s *serveSystem) runRecorded(ph phase, seed int64) phaseResult {
	ph.recs = newRecorders(len(s.clients), windowsIn(ph.dur), seed)
	res := s.runPhase(ph)
	res.phaseStats = digest(ph.recs)
	return res
}

func (s *serveSystem) cpuNow() []float64 {
	var out []float64
	for _, c := range s.children() {
		out = append(out, cpuMS(c.pid()))
	}
	return out
}

// stalled reports whether a client gave up on the system: its watchdog
// fired or the connection died. Such a system is killed, not drained.
func (s *serveSystem) stalled() bool {
	for _, w := range s.clients {
		if w.dead {
			return true
		}
	}
	return false
}

// setup launches the system, connects the clients and warms both up;
// the returned duration is the workload's set-up time.
func setupServe(e *env, spec *workloadSpec, cfg runConfig, base time.Time) (*serveSystem, phaseResult, time.Duration, error) {
	t0 := time.Now()
	s, err := startServe(e, spec, cfg.sched, cfg.traced)
	if err != nil {
		return nil, phaseResult{}, 0, err
	}
	if err := s.connect(cfg, base); err != nil {
		s.kill()
		return nil, phaseResult{}, 0, err
	}
	warm := s.runPhase(phase{name: "warm", window: satWindow, dur: watchdog / 2, maxOps: warmOps, watchdog: watchdog / 2})
	return s, warm, time.Since(t0), nil
}

// fetchStats asks one daemon for its counters over a connection of its
// own (a stats frame is an inline control op: it perturbs no data-op count).
func fetchStats(addr string) (*svc.StatsBody, error) {
	c, err := svc.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// audit runs the end-of-run output checks that need the daemons alive:
// the stats-frame accounting identity on every process that answers a
// stats frame, and the fleet identities on /cluster. It returns the
// number of ops the misses affect.
func (s *serveSystem) audit(res *runResult) (failed int64) {
	addrs := s.memberAddrs
	if s.router != nil {
		addrs = append([]string{s.addr}, addrs...)
	}
	for _, addr := range addrs {
		st, err := fetchStats(addr)
		if err != nil {
			res.note("audit: stats frame from %s: %v", addr, err)
			failed++
			continue
		}
		classified := st.Served + st.Shed + st.Busy + st.Cancelled + st.Rejected + st.Errors
		if d := st.Requests - classified; d != 0 {
			res.note("audit: %s: requests %d != served+shed+busy+cancelled+rejected+errors %d", addr, st.Requests, classified)
			failed += max(d, -d)
		}
		if bad := st.Shed + st.Busy + st.Cancelled + st.Rejected + st.Errors; bad != 0 && s.router == nil {
			// Already counted reply by reply on the client side; named
			// here so the report says which server-side class it was.
			res.note("audit: %s: shed=%d busy=%d cancelled=%d rejected=%d errors=%d", addr, st.Shed, st.Busy, st.Cancelled, st.Rejected, st.Errors)
		}
	}
	if s.router != nil {
		snap, err := cluster.FetchSnapshot(s.controlURL)
		if err != nil {
			res.note("audit: /cluster: %v", err)
			return failed + 1
		}
		for _, v := range cluster.FleetCheck(snap) {
			res.note("audit: fleet: %s", v)
			failed++
		}
	}
	return failed
}

// stop closes the clients and drains the daemons, the router first; it
// returns how many of them did not exit 0 from a graceful drain. A
// system that stopped answering is not given the chance.
func (s *serveSystem) stop(grace time.Duration) (dirty int64) {
	for _, w := range s.clients {
		w.close()
	}
	if s.stalled() {
		s.kill()
		return int64(len(s.children()))
	}
	for _, c := range s.children() {
		if !c.terminate(grace) {
			dirty++
		}
	}
	return dirty
}

func (s *serveSystem) peakRSSMB() float64 {
	var sum float64
	for _, c := range s.children() {
		sum += peakRSSMB(c.pid())
	}
	return sum
}

// runServe is the end-to-end (untraced) run of a serve workload.
func runServe(e *env, spec *workloadSpec, cfg runConfig) *runResult {
	res := newRunResult(spec, cfg)
	base := time.Now()
	var setups []float64
	var sys *serveSystem
	for i := 0; i < numSetups; i++ {
		s, warm, d, err := setupServe(e, spec, cfg, base)
		if err != nil {
			return res.abort(endToEnd, "set-up %d: %v", i, err)
		}
		setups = append(setups, d.Seconds())
		res.addPhase(warm)
		if s.stalled() {
			// No point measuring, or setting up twice more, a system that
			// does not survive its warm-up.
			s.stop(0)
			return res.abort(endToEnd, "set-up %d: the system stopped answering during warm-up", i)
		}
		if i < numSetups-1 {
			if dirty := s.stop(drainGrace); dirty > 0 {
				res.Failed += dirty
				res.note("set-up %d: %d daemon(s) did not drain cleanly", i, dirty)
			}
			continue
		}
		sys = s
	}
	satRecs := newRecorders(numClients, cfg.cycles(), cfg.seed)
	soloRecs := newRecorders(numClients, cfg.cycles(), cfg.seed+100)
	var sat, solo phaseResult
	for i := 0; i < cfg.cycles() && !sys.stalled(); i++ {
		sat.join(sys.runPhase(phase{name: "sat", window: satWindow, dur: windowWidth, watchdog: watchdog, recs: satRecs, firstWin: i}))
		solo.join(sys.runPhase(phase{name: "solo", window: soloWindow, dur: windowWidth, watchdog: watchdog, recs: soloRecs, firstWin: i}))
	}
	sat.phaseStats, solo.phaseStats = digest(satRecs), digest(soloRecs)
	res.addPhase(sat)
	res.addPhase(solo)
	if !sys.stalled() {
		res.Failed += sys.audit(res)
	}
	rss := sys.peakRSSMB()
	if dirty := sys.stop(drainGrace); dirty > 0 {
		res.Failed += dirty
		res.note("%d daemon(s) did not exit 0 from a SIGTERM drain", dirty)
	}

	var cpu float64
	for _, c := range sat.cpuMS {
		cpu += c
	}
	res.set(endToEnd, map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": sat.OpsPerSec,
		"sat_p50_us":       sat.P50US,
		"sat_p99_us":       sat.P99US,
		"solo_p50_us":      solo.P50US,
		"solo_p99_us":      solo.P99US,
		"cpu_ms_per_kop":   perKop(cpu, sat.ok),
		"peak_rss_mb":      rss,
	})
	res.latencyNotes(sat.phaseStats, solo.phaseStats)
	res.note("loadgen used %.1f ms CPU per 1000 ops in sat (system under test: %.1f)", perKop(sat.loadgenMS, sat.ok), perKop(cpu, sat.ok))
	res.finish()
	return res
}

func perKop(x float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return x / (float64(ops) / 1000)
}

// addPhase folds one phase's counts into the run's verdict.
func (r *runResult) addPhase(p phaseResult) {
	r.Attempted += p.sent
	r.Failed += p.failed
	r.Stale += p.stale
	if p.firstErr != "" {
		r.note("%s", p.firstErr)
	}
}

// latencyNotes prints, beside the percentiles, how many ops they rest on
// and the highest percentile the windows can still resolve.
func (r *runResult) latencyNotes(sat, solo phaseStats) {
	for _, n := range []string{"throughput_ops_s", "sat_p50_us", "sat_p99_us", "cpu_ms_per_kop"} {
		r.Samples[n] = sat.Ops
	}
	r.Samples["solo_p50_us"], r.Samples["solo_p99_us"] = solo.Ops, solo.Ops
	r.Windows = map[string][]float64{
		"throughput_ops_s": sat.WinRates, "sat_p50_us": sat.WinP50US, "sat_p99_us": sat.WinP99US,
		"solo_ops_s": solo.WinRates, "solo_p50_us": solo.WinP50US, "solo_p99_us": solo.WinP99US,
	}
	r.note("sat: %d windows of %v, mean rate %.0f ops/s, mean latency %.1f us, %s = %.1f us (highest percentile with 10 samples beyond it per window)",
		sat.Windows, windowWidth, sat.MeanRate, sat.MeanUS, pctLabel(sat.TopPct), sat.TopUS)
	r.note("solo: %d windows of %v, mean rate %.0f ops/s, mean latency %.1f us, %s = %.1f us",
		solo.Windows, windowWidth, solo.MeanRate, solo.MeanUS, pctLabel(solo.TopPct), solo.TopUS)
}
