package main

import (
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/obs"
	"twe/internal/rpl"
	"twe/internal/sched"
)

// cell is one region's state: written by task bodies with no lock, which
// is exactly what the declared effect licenses. Padded to a cache line
// so neighbouring regions do not share one.
type cell struct {
	sum int64  // what the output check adds up
	mix uint64 // xorshift state the body spins on
	_   [48]byte
}

// fgSystem is the in-process system under test of runtime_finegrain: a
// runtime, its pre-built tasks and the cells they write.
type fgSystem struct {
	rt       *core.Runtime
	clusters [fgClusters]cell
	points   [fgPointBlocks * fgBatchSize]cell
	readSeen atomic.Int64 // last total a reads Cluster:* task computed

	writeTask [fgClusters]*core.Task
	pointTask [fgPointBlocks * fgBatchSize]*core.Task
	readTask  *core.Task
}

func spin(c *cell) {
	x := c.mix | 1
	for i := 0; i < fgBodySpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	c.mix = x
}

func clusterRegion(k int) rpl.RPL { return rpl.New(rpl.N("Cluster"), rpl.Idx(k)) }
func pointRegion(i int) rpl.RPL   { return rpl.New(rpl.N("Points"), rpl.Idx(i)) }

// newFGSystem builds the runtime on the named scheduler ("" = default).
// tr may be nil: an untraced runtime is what a library user gets.
func newFGSystem(schedName string, tr *obs.Tracer) (*fgSystem, error) {
	var opts []core.Option
	if tr != nil {
		opts = append(opts, core.WithTracer(tr))
	}
	rt, err := sched.NewRuntime(sched.Config{Name: schedName, PoolSize: numClients}, opts...)
	if err != nil {
		return nil, err
	}
	s := &fgSystem{rt: rt}
	in := rt.Interner()
	for k := range s.writeTask {
		c := &s.clusters[k]
		s.writeTask[k] = core.NewTask("reduce", in.InternSet(effect.NewSet(effect.WriteEff(clusterRegion(k)))),
			func(_ *core.Ctx, arg any) (any, error) {
				c.sum += arg.(int64)
				spin(c)
				return nil, nil
			})
	}
	for i := range s.pointTask {
		c := &s.points[i]
		s.pointTask[i] = core.NewTask("assign", in.InternSet(effect.NewSet(effect.WriteEff(pointRegion(i)))),
			func(_ *core.Ctx, arg any) (any, error) {
				c.sum += arg.(int64)
				spin(c)
				return nil, nil
			})
	}
	s.readTask = core.NewTask("snapshot", effect.NewSet(effect.Read(rpl.New(rpl.N("Cluster"), rpl.Any))),
		func(_ *core.Ctx, _ any) (any, error) {
			var total int64
			for k := range s.clusters {
				total += s.clusters[k].sum
			}
			s.readSeen.Store(total)
			return nil, nil
		})
	return s, nil
}

// fgDone is one finished submission, handed from the finishing worker
// back to the submitter that owns the recorder.
type fgDone struct {
	start time.Time
	fin   [fgBatchSize]time.Time // finish time per task; fin[0] for singles
	n     int
	left  atomic.Int32
	admit time.Duration // how long the Submit call itself took
	fut   [fgBatchSize]*core.Future
	err   atomic.Bool
}

// fgSubmitter is one closed-loop submitter: it keeps `window`
// submissions outstanding. An op is one task; a batch is one submission
// of fgBatchSize ops.
type fgSubmitter struct {
	idx  int
	sys  *fgSystem
	plan *fgPlan
	done chan *fgDone // capacity ≥ window, so a finishing worker never blocks

	// What this submitter's completed writes add up to, per cell.
	wantCluster [fgClusters]int64
	wantPoint   [fgPointBlocks * fgBatchSize]int64

	// progress is read by the watchdog while the submitter may be stuck
	// inside Submit; everything else is read only after it returned.
	progress atomic.Int64
	tally    tally

	// Traced runs only: per-op layer timings from the live loop.
	traced                    bool
	admitNS, batchAdmitNS     []float64
	handoffNS, submitToDoneNS []float64
	spans                     []span
	base                      time.Time
	batchSubs                 []core.Submission
	free                      []*fgDone
	traceSeq                  int64
	phaseSpans                int // op spans kept in the current phase
}

func newFGSubmitter(idx int, sys *fgSystem, seed int64, traced bool, base time.Time) *fgSubmitter {
	return &fgSubmitter{idx: idx, sys: sys, plan: newFGPlan(seed, idx), done: make(chan *fgDone, satWindow),
		traced: traced, base: base, batchSubs: make([]core.Submission, fgBatchSize)}
}

func (s *fgSubmitter) get() *fgDone {
	if n := len(s.free); n > 0 {
		d := s.free[n-1]
		s.free = s.free[:n-1]
		return d
	}
	return &fgDone{}
}

func (s *fgSubmitter) submit(sub fgSub) {
	d := s.get()
	d.err.Store(false)
	d.start = time.Now()
	switch sub.kind {
	case fgBatch:
		d.n = fgBatchSize
		d.left.Store(fgBatchSize)
		for j := 0; j < fgBatchSize; j++ {
			i := sub.k*fgBatchSize + j
			s.wantPoint[i] += sub.val
			s.batchSubs[j] = core.Submission{Task: s.sys.pointTask[i], Arg: sub.val, OnDone: func(f *core.Future) {
				d.fin[j] = time.Now()
				if f.Err() != nil {
					d.err.Store(true)
				}
				if d.left.Add(-1) == 0 {
					s.done <- d
				}
			}}
		}
		futs := s.sys.rt.SubmitBatch(s.batchSubs)
		d.admit = time.Since(d.start)
		copy(d.fut[:], futs)
	default:
		d.n = 1
		task, arg := s.sys.readTask, any(nil)
		if sub.kind == fgWrite {
			s.wantCluster[sub.k] += sub.val
			task, arg = s.sys.writeTask[sub.k], sub.val
		}
		d.fut[0] = s.sys.rt.Submit(task, core.WithArg(arg), core.WithOnDone(func(f *core.Future) {
			d.fin[0] = time.Now()
			if f.Err() != nil {
				d.err.Store(true)
			}
			s.done <- d
		}))
		d.admit = time.Since(d.start)
	}
	s.tally.sent += int64(d.n)
}

// reap records one finished submission.
func (s *fgSubmitter) reap(d *fgDone, rec *recorder) {
	if d.err.Load() {
		s.tally.fail(int64(d.n), "submitter %d: a task finished with an error: %v", s.idx, d.fut[0].Err())
	} else {
		s.tally.ok += int64(d.n)
		for j := 0; j < d.n; j++ {
			if rec != nil {
				rec.add(d.fin[j], d.fin[j].Sub(d.start))
			}
		}
	}
	if s.traced {
		s.traceDone(d)
	}
	s.progress.Add(int64(d.n))
	s.free = append(s.free, d)
}

// traceDone takes the layer timings a traced run wants from one
// submission: the Submit call itself, Submit → body start (hand-off) and
// Submit → OnDone, the last two from the future's own trace stamps.
func (s *fgSubmitter) traceDone(d *fgDone) {
	// One submission in seven: a stride coprime to the plan's periods of
	// 16 and 256, so singles, batches and scans are sampled alike.
	if s.traceSeq++; s.traceSeq%7 != 0 {
		return
	}
	if d.n == 1 {
		s.admitNS = append(s.admitNS, float64(d.admit))
	} else {
		s.batchAdmitNS = append(s.batchAdmitNS, float64(d.admit)/float64(d.n))
	}
	for j := 0; j < d.n; j++ {
		sub, _, start, _ := d.fut[j].TraceStamps()
		if sub > 0 && start >= sub {
			s.handoffNS = append(s.handoffNS, float64(start-sub))
		}
		s.submitToDoneNS = append(s.submitToDoneNS, float64(d.fin[j].Sub(d.start)))
	}
	if s.phaseSpans < maxOpSpans {
		s.phaseSpans++
		name := "op.task"
		if d.n > 1 {
			name = "op.batch"
		}
		s.spans = append(s.spans, span{Name: name, ID: uint64(s.idx+1)<<32 | uint64(len(s.spans)+1),
			Trace: d.fut[0].Seq(), StartNS: int64(d.start.Sub(s.base)), DurNS: int64(d.fin[d.n-1].Sub(d.start))})
	}
}

// run drives one phase. It returns when the window has drained; if the
// runtime stops answering it never returns, which the caller's watchdog
// turns into a stall.
func (s *fgSubmitter) run(ph phase, rec *recorder, start time.Time) {
	stopAt := start.Add(ph.dur)
	out := 0
	s.phaseSpans = 0
	for {
		sending := time.Now().Before(stopAt) && (ph.maxOps == 0 || s.tally.sent < int64(ph.maxOps))
		for sending && out < ph.window {
			s.submit(s.plan.next())
			out++
			if ph.maxOps > 0 && s.tally.sent >= int64(ph.maxOps) {
				break
			}
		}
		if out == 0 {
			return
		}
		s.reap(<-s.done, rec)
		out--
		// Take whatever else has finished without blocking, so a slow
		// reap never holds completed work back.
		for more := true; more && out > 0; {
			select {
			case d := <-s.done:
				s.reap(d, rec)
				out--
			default:
				more = false
			}
		}
	}
}

// fgPhaseResult is one phase over both submitters.
type fgPhaseResult struct {
	phaseStats
	tally
	cpuMS   float64
	stalled bool
}

// join folds one slice of an interleaved run into its phase, as
// phaseResult.join does.
func (p *fgPhaseResult) join(q fgPhaseResult) {
	p.tally.add(q.tally)
	p.cpuMS += q.cpuMS
	p.stalled = p.stalled || q.stalled
}

// runFGPhase runs every submitter through ph and waits for them under a
// watchdog. On a stall it reports what the progress counters show and
// leaves the stuck goroutines behind: nothing can interrupt a submitter
// that is spinning inside the scheduler.
func runFGPhase(subs []*fgSubmitter, ph phase) fgPhaseResult {
	var res fgPhaseResult
	recs := make([]*recorder, len(subs))
	copy(recs, ph.recs)
	before := make([]tally, len(subs))
	var progress0 int64
	for i, s := range subs {
		before[i] = s.tally
		progress0 += s.progress.Load()
	}
	cpu0 := selfCPUMS()
	start := time.Now()
	finished := make(chan struct{}, len(subs))
	for i, s := range subs {
		if recs[i] != nil {
			recs[i].begin(start, ph.firstWin, windowsIn(ph.dur))
		}
		go func() { s.run(ph, recs[i], start); finished <- struct{}{} }()
	}
	deadline := time.After(ph.dur + ph.watchdog)
	for range subs {
		select {
		case <-finished:
		case <-deadline:
			res.stalled = true
		}
		if res.stalled {
			break
		}
	}
	res.cpuMS = selfCPUMS() - cpu0
	if res.stalled {
		var done int64
		for _, s := range subs {
			done += s.progress.Load()
		}
		res.ok = done - progress0
		res.sent = res.ok + int64(len(subs)*ph.window) // at least the open windows never came back
		res.fail(res.sent-res.ok, "%s phase: watchdog fired %v after the phase should have ended; %d op(s) answered before the stall",
			ph.name, ph.watchdog, res.ok)
		return res
	}
	for i, s := range subs {
		res.sent += s.tally.sent - before[i].sent
		res.ok += s.tally.ok - before[i].ok
		res.failed += s.tally.failed - before[i].failed
		if res.firstErr == "" {
			res.firstErr = s.tally.firstErr
		}
	}
	return res
}

// runFGRecorded runs a contiguous phase on recorders of its own and
// digests them.
func runFGRecorded(subs []*fgSubmitter, ph phase, seed int64) fgPhaseResult {
	ph.recs = newRecorders(len(subs), windowsIn(ph.dur), seed)
	res := runFGPhase(subs, ph)
	if !res.stalled {
		res.phaseStats = digest(ph.recs)
	}
	return res
}

// verify checks the cells against what the submitters' completed writes
// add up to, and returns the number of cells that are off. A lost or
// doubled update means two conflicting bodies overlapped.
func (sys *fgSystem) verify(subs []*fgSubmitter, res *runResult) (bad int64) {
	for k := range sys.clusters {
		var want int64
		for _, s := range subs {
			want += s.wantCluster[k]
		}
		if got := sys.clusters[k].sum; got != want {
			res.note("Cluster:[%d] holds %d, its completed writes add up to %d", k, got, want)
			bad++
		}
	}
	for i := range sys.points {
		var want int64
		for _, s := range subs {
			want += s.wantPoint[i]
		}
		if got := sys.points[i].sum; got != want {
			res.note("Points:[%d] holds %d, its completed writes add up to %d", i, got, want)
			bad++
		}
	}
	return bad
}

// setupFinegrain builds the runtime and warms it with a fixed number of
// tasks; the duration is the workload's set-up time.
func setupFinegrain(cfg runConfig, tr *obs.Tracer, base time.Time) (*fgSystem, []*fgSubmitter, fgPhaseResult, time.Duration, error) {
	t0 := time.Now()
	sys, err := newFGSystem(cfg.sched, tr)
	if err != nil {
		return nil, nil, fgPhaseResult{}, 0, err
	}
	subs := make([]*fgSubmitter, numClients)
	for i := range subs {
		subs[i] = newFGSubmitter(i, sys, cfg.seed, tr != nil, base)
	}
	warm := runFGPhase(subs, phase{name: "warm", window: satWindow, dur: watchdog / 2, maxOps: fgWarmOps, watchdog: watchdog / 2})
	return sys, subs, warm, time.Since(t0), nil
}

// fgWarmOps is the warm-up of runtime_finegrain, per submitter: enough
// tasks that the pool's workers exist and the tree holds every region.
const fgWarmOps = 50_000

// runFinegrain is the end-to-end (untraced) run of runtime_finegrain.
func runFinegrain(spec *workloadSpec, cfg runConfig) *runResult {
	res := newRunResult(spec, cfg)
	var setups []float64
	var sys *fgSystem
	var subs []*fgSubmitter
	for i := 0; i < numSetups; i++ {
		s, sb, warm, d, err := setupFinegrain(cfg, nil, time.Now())
		if err != nil {
			return res.abort(endToEnd, "set-up: %v", err)
		}
		res.addFGPhase(warm)
		if warm.stalled {
			return res.abort(endToEnd, "the runtime stopped answering during warm-up")
		}
		setups = append(setups, d.Seconds())
		if i < numSetups-1 {
			res.Failed += s.verify(sb, res)
			s.rt.Shutdown()
			continue
		}
		sys, subs = s, sb
	}
	satRecs := newRecorders(numClients, cfg.cycles(), cfg.seed)
	soloRecs := newRecorders(numClients, cfg.cycles(), cfg.seed+100)
	runtime.GC() // the discarded set-ups' garbage is not the workload's
	var sat, solo fgPhaseResult
	for i := 0; i < cfg.cycles() && !sat.stalled && !solo.stalled; i++ {
		sat.join(runFGPhase(subs, phase{name: "sat", window: satWindow, dur: windowWidth, watchdog: watchdog, recs: satRecs, firstWin: i}))
		if !sat.stalled {
			solo.join(runFGPhase(subs, phase{name: "solo", window: soloWindow, dur: windowWidth, watchdog: watchdog, recs: soloRecs, firstWin: i}))
		}
	}
	if !sat.stalled && !solo.stalled {
		// A stuck submitter may still write to its recorder.
		sat.phaseStats, solo.phaseStats = digest(satRecs), digest(soloRecs)
	}
	res.addFGPhase(sat)
	res.addFGPhase(solo)
	if !sat.stalled && !solo.stalled {
		sys.rt.Shutdown()
		res.Failed += sys.verify(subs, res)
		if !sys.rt.Quiesced() {
			res.Failed++
			res.note("runtime not quiesced after Shutdown")
		}
	}
	res.set(endToEnd, map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": sat.OpsPerSec,
		"sat_p50_us":       sat.P50US,
		"sat_p99_us":       sat.P99US,
		"solo_p50_us":      solo.P50US,
		"solo_p99_us":      solo.P99US,
		"cpu_ms_per_kop":   perKop(sat.cpuMS, sat.ok),
		"peak_rss_mb":      peakRSSMB(os.Getpid()),
	})
	res.latencyNotes(sat.phaseStats, solo.phaseStats)
	res.finish()
	return res
}

func (r *runResult) addFGPhase(p fgPhaseResult) {
	r.Attempted += p.sent
	r.Failed += p.failed
	if p.firstErr != "" {
		r.note("%s", p.firstErr)
	}
}
