package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"twe/internal/svc"
)

func TestServePlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, spec := range workloads {
		if spec.Proto == 0 {
			continue
		}
		for c := 0; c < numClients; c++ {
			a, b, other := newServePlan(7, c, spec.Mix), newServePlan(7, c, spec.Mix), newServePlan(8, c, spec.Mix)
			differs := false
			for i := 0; i < 2000; i++ {
				x, y := a.next(), b.next()
				if x != y {
					t.Fatalf("%s client %d op %d: same seed gave %+v and %+v", spec.Name, c, i, x, y)
				}
				if x != other.next() {
					differs = true
				}
			}
			if !differs {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same 2000 ops", spec.Name, c)
			}
		}
	}
}

func TestFinegrainPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := newFGPlan(3, 1), newFGPlan(3, 1)
	var writes, batches, reads int
	for i := 1; i <= 4096; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("submission %d: same seed gave %+v and %+v", i, x, y)
		}
		switch x.kind {
		case fgWrite:
			writes++
			if x.k < 0 || x.k >= fgClusters {
				t.Fatalf("cluster index %d out of range", x.k)
			}
		case fgBatch:
			batches++
			if i%fgBatchEvery != 0 || x.k < 0 || x.k >= fgPointBlocks {
				t.Fatalf("submission %d: unexpected batch %+v", i, x)
			}
		case fgRead:
			reads++
			if i%fgScanEvery != 0 {
				t.Fatalf("submission %d: unexpected wildcard read", i)
			}
		}
	}
	if reads != 4096/fgScanEvery || batches != 4096/fgBatchEvery-reads || writes != 4096-batches-reads {
		t.Errorf("4096 submissions split %d writes / %d batches / %d reads", writes, batches, reads)
	}
}

func TestPlansKeepTheirWorkloadsPromises(t *testing.T) {
	for _, spec := range workloads {
		if spec.Proto == 0 {
			continue
		}
		owner := map[int]int{}
		for c := 0; c < numClients; c++ {
			for _, k := range spec.Mix.ownedKeys(c) {
				if prev, dup := owner[k]; dup {
					t.Fatalf("%s: key %d owned by clients %d and %d", spec.Name, k, prev, c)
				}
				owner[k] = c
			}
		}
		for c := 0; c < numClients; c++ {
			p := newServePlan(1, c, spec.Mix)
			counts := map[opKind]int{}
			hot, members := 0, map[int]bool{}
			const n = 32000
			for i := 0; i < n; i++ {
				op := p.next()
				counts[op.kind]++
				if op.kind == opScan {
					continue
				}
				shard := op.key % storeShards
				members[shard%2] = true
				switch {
				case contains(p.owned, op.key):
				case spec.Mix.HotFrac > 0 && shard == 0:
					hot++
				default:
					t.Fatalf("%s client %d touches key %d, neither its own nor shared", spec.Name, c, op.key)
				}
				if spec.Name == "serve_v2_disjoint" && shard%numClients != c {
					t.Fatalf("serve_v2_disjoint client %d touches shard %d", c, shard)
				}
				if op.kind == opPut {
					if seq, key, client := decodeVal(op.val); seq != p.n || key != op.key || client != c {
						t.Fatalf("put value %d decodes to (%d,%d,%d), want (%d,%d,%d)", op.val, seq, key, client, p.n, op.key, c)
					}
				}
			}
			if spec.Mix.ScanEvery > 0 && counts[opScan] != n/spec.Mix.ScanEvery {
				t.Errorf("%s: %d scans in %d ops, want every %d", spec.Name, counts[opScan], n, spec.Mix.ScanEvery)
			}
			data := float64(n - counts[opScan])
			if got := float64(counts[opPut]) / data; math.Abs(got-spec.Mix.PutFrac) > 0.02 {
				t.Errorf("%s: put share %.3f, want %.2f", spec.Name, got, spec.Mix.PutFrac)
			}
			if got := float64(counts[opAdd]) / data; math.Abs(got-spec.Mix.AddFrac) > 0.02 {
				t.Errorf("%s: add share %.3f, want %.2f", spec.Name, got, spec.Mix.AddFrac)
			}
			if got := float64(hot) / data; math.Abs(got-spec.Mix.HotFrac) > 0.02 {
				t.Errorf("%s: hot share %.3f, want %.2f", spec.Name, got, spec.Mix.HotFrac)
			}
			if spec.Cluster && len(members) != 2 {
				t.Errorf("%s client %d reaches %d member(s), want both", spec.Name, c, len(members))
			}
		}
	}
}

func contains(keys []int, k int) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

func TestPercentileMaths(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := percentile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {1000, 0.99}, {100000, 0.9999}} {
		if got := topPercentile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := pctLabel(0.9999); got != "p99.99" {
		t.Errorf("pctLabel = %q", got)
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// The spread must be Python's: statistics.quantiles(v, n=4) on these
// inputs gives the quartiles written here.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		v              []float64
		q1, q3, spread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 1},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25, 1},
		{[]float64{100, 101, 99, 100}, 99.25, 100.75, 0.015},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
		if got := spread(tc.v); math.Abs(got-tc.spread) > 1e-9 {
			t.Errorf("spread(%v) = %v, want %v", tc.v, got, tc.spread)
		}
	}
}

func TestRecorderWindowsAndReservoir(t *testing.T) {
	start := time.Now()
	recs := newRecorders(2, 3, 1)
	for _, r := range recs {
		r.begin(start, 0, 3)
	}
	// Window 0: 100 ops of 1..100 us on each client; window 1: more ops
	// than the cap; window 2 and anything past the phase: nothing kept.
	for _, r := range recs {
		for i := 1; i <= 100; i++ {
			r.add(start.Add(500*time.Millisecond), time.Duration(i)*time.Microsecond)
		}
		for i := 0; i < windowCap+1000; i++ {
			r.add(start.Add(1500*time.Millisecond), 7*time.Microsecond)
		}
		r.add(start.Add(3500*time.Millisecond), time.Hour)
	}
	if got := len(recs[0].wins[1].samples); got != windowCap {
		t.Fatalf("window over the cap keeps %d samples, want %d", got, windowCap)
	}
	ps := digest(recs)
	if ps.Windows != 3 || ps.Ops != 2*(100+windowCap+1000) {
		t.Fatalf("digest counted %d windows, %d ops", ps.Windows, ps.Ops)
	}
	// Per-window p50s are 50.5 (window 0) and 7 (window 1); window 2 is
	// empty and has no percentile. Rates are 200, 2*(cap+1000), 0.
	if want := (50.5 + 7) / 2; math.Abs(ps.P50US-want) > 1e-9 {
		t.Errorf("P50US = %v, want %v", ps.P50US, want)
	}
	if ps.OpsPerSec != 200 {
		t.Errorf("OpsPerSec = %v, want 200 (median of 200, %d, 0)", ps.OpsPerSec, 2*(windowCap+1000))
	}
}

func TestComparatorVerdicts(t *testing.T) {
	lower := metricDef{Name: "sat_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005, m * 0.995} }
	for _, tc := range []struct {
		name      string
		def       metricDef
		base, new []float64
		want      verdict
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"within bound", lower, steady(100), steady(109), verdictOK},
		{"slower beyond bound", lower, steady(100), steady(112), verdictRegressed},
		{"faster", lower, steady(100), steady(50), verdictOK},
		{"throughput down beyond bound", higher, steady(1000), steady(880), verdictRegressed},
		{"throughput up", higher, steady(1000), steady(2000), verdictOK},
		{"scatter wider than the bound", lower, []float64{80, 100, 120, 90, 110, 130}, steady(100), verdictUnresolved},
		{"scatter hides a regression", lower, steady(100), []float64{100, 150, 200, 120, 180, 90}, verdictUnresolved},
		{"single runs decide on medians", lower, []float64{100}, []float64{120}, verdictRegressed},
		{"setup_s is exempt from the spread gate", metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			[]float64{0.2, 0.3, 0.4, 0.25, 0.35, 0.5}, []float64{0.2, 0.3, 0.4, 0.25, 0.35, 0.5}, verdictOK},
	} {
		if got := judge(tc.def, tc.base, tc.new).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	mk := func(failed int64, p50 float64) *report {
		r := &runResult{Workload: "serve_v2_disjoint", Attempted: 1000, Failed: failed, Metrics: map[string]metricVal{"sat_p50_us": {p50, "us"}}}
		return &report{SchemaVersion: schemaVersion, Workloads: []*workloadRun{{Spec: workloads[0], Runs: []*runResult{r}}}}
	}
	rows := compareReports(mk(0, 100), mk(1, 100))
	if len(rows) != 2 || rows[0].Verdict != verdictOK || rows[1].Metric != "fail_ratio" || rows[1].Verdict != verdictRegressed {
		t.Errorf("a failure that was not there before must regress fail_ratio: %+v", rows)
	}
	if rows := compareReports(mk(1, 100), mk(1, 100)); rows[1].Verdict != verdictOK {
		t.Errorf("an unchanged failure count is not a regression: %+v", rows[1])
	}
}

var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef, bounded bool) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, metricName)
		}
		if !unitName.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitName)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if bounded != (d.Bound > 0) || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d, true)
	}
	for _, d := range perLayer {
		check(d, false)
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !seen["setup_s"] {
		t.Error("the contract requires a setup_s metric")
	}
}

// BENCHMARK.json is what the driver reads; the catalogue in schema.go is
// what the harness prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if n := (runConfig{seconds: bj.RunSeconds}).cycles(); n < 10 {
		t.Errorf("run_seconds %d gives %d saturated and %d solo windows, want at least 10 of each", bj.RunSeconds, n, n)
	}
}

// An interleaved run records a phase in one-window slices: each slice
// fills its own window of the phase's recorder, whatever ran in between.
func TestSlicesFillTheirOwnWindows(t *testing.T) {
	rec := newRecorder(3, 1)
	for i, us := range []int{30, 10, 20} {
		start := time.Now().Add(time.Duration(2*i) * windowWidth) // a solo window lies between two sat slices
		rec.begin(start, i, 1)
		for j := 0; j < 10*(i+1); j++ {
			rec.add(start.Add(time.Millisecond), time.Duration(us)*time.Microsecond)
		}
		rec.add(start.Add(windowWidth+time.Millisecond), time.Hour) // drained after the slice: not timed
		rec.add(start.Add(-time.Millisecond), time.Hour)
	}
	ps := digest([]*recorder{rec})
	if ps.Windows != 3 || ps.Ops != 60 || ps.P50US != 20 || ps.OpsPerSec != 20 {
		t.Errorf("digest of the slices: %+v", ps)
	}
	if !reflect.DeepEqual(ps.WinP50US, []float64{30, 10, 20}) {
		t.Errorf("windows out of slice order: %v", ps.WinP50US)
	}

	var joined phaseResult
	for i := 0; i < 3; i++ {
		joined.join(phaseResult{tally: tally{sent: 5, ok: 5}, cpuMS: []float64{1, 2}, loadgenMS: 1})
	}
	if joined.sent != 15 || joined.ok != 15 || joined.cpuMS[1] != 6 || joined.loadgenMS != 3 {
		t.Errorf("joined counts: %+v cpu %v loadgen %v", joined.tally, joined.cpuMS, joined.loadgenMS)
	}
}

func TestResultLineCarriesExactlyTheAskedMetrics(t *testing.T) {
	res := newRunResult(workloads[0], runConfig{seed: 1, seconds: 18})
	res.set(endToEnd, map[string]float64{"setup_s": 0.25, "sat_p50_us": 600})
	res.Attempted, res.Failed = 1000, 0
	res.finish()
	var line struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(res.resultLine(endToEnd)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 1000 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", line)
	}
	if line.Metrics["setup_s"] != (metricVal{0.25, "s"}) {
		t.Errorf("setup_s = %+v", line.Metrics["setup_s"])
	}
	empty := newRunResult(workloads[0], runConfig{})
	empty.finish()
	if empty.Correct || empty.Attempted < 1 {
		t.Errorf("a run that attempted nothing must not read as correct: %+v", empty)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm([]byte("# HELP x y\n# TYPE x counter\nx 12\n" +
		"twe_serve_phase_seconds_sum{phase=\"recv\"} 0.5\ntwe_serve_phase_seconds_bucket{phase=\"recv\",le=\"+Inf\"} 3\n"))
	if p["x"] != 12 || p[`twe_serve_phase_seconds_sum{phase="recv"}`] != 0.5 || p[`twe_serve_phase_seconds_bucket{phase="recv",le="+Inf"}`] != 3 {
		t.Errorf("parsed %v", p)
	}
}

// The reply check separates three things: a wrong reply (failed), a value
// that is the client's own but not its latest (stale: a program-order
// miss), and a correct reply.
func TestReplyCheck(t *testing.T) {
	plan := newServePlan(1, 0, workloads[0].Mix)
	w := newWireClient(0, "", svc.ProtoV2, plan, time.Now())
	key := plan.owned[0]
	plan.n = 50
	latest, older := putVal(40, key, 0), putVal(30, key, 0)
	get := func(want int64) *inflight {
		return &inflight{id: 9, op: planOp{kind: opGet, key: key}, strict: true, wantVal: want}
	}
	for _, tc := range []struct {
		name              string
		in                *inflight
		resp              svc.Response
		ok                bool
		wantStale, wantFl int64
	}{
		{"latest value", get(latest), svc.Response{ID: 9, Status: svc.StatusOK, Val: latest}, true, 0, 0},
		{"own older value", get(latest), svc.Response{ID: 9, Status: svc.StatusOK, Val: older}, true, 1, 0},
		{"zero after a put", get(latest), svc.Response{ID: 9, Status: svc.StatusOK, Val: 0}, true, 1, 0},
		{"zero before any put", get(0), svc.Response{ID: 9, Status: svc.StatusOK, Val: 0}, true, 0, 0},
		{"the other client's value on an owned key", get(latest), svc.Response{ID: 9, Status: svc.StatusOK, Val: putVal(40, key, 1)}, false, 0, 1},
		{"a value from the future", get(latest), svc.Response{ID: 9, Status: svc.StatusOK, Val: putVal(60, key, 0)}, false, 0, 1},
		{"a value written to another key", get(latest), svc.Response{ID: 9, Status: svc.StatusOK, Val: putVal(40, key+1, 0)}, false, 0, 1},
		{"out of order", get(latest), svc.Response{ID: 10, Status: svc.StatusOK, Val: latest}, false, 0, 1},
		{"busy", get(latest), svc.Response{ID: 9, Status: svc.StatusBusy}, false, 0, 1},
		{"add total", &inflight{id: 9, op: planOp{kind: opAdd, key: key, val: 3}}, svc.Response{ID: 9, Status: svc.StatusOK, Val: 3}, true, 0, 0},
	} {
		var tl tally
		if ok := w.check(tc.in, &tc.resp, &tl); ok != tc.ok || tl.stale != tc.wantStale || tl.failed != tc.wantFl {
			t.Errorf("%s: ok=%v stale=%d failed=%d, want ok=%v stale=%d failed=%d (%s)",
				tc.name, ok, tl.stale, tl.failed, tc.ok, tc.wantStale, tc.wantFl, tl.firstErr)
		}
	}
}

// A 200 ms run of the in-process workload: the loop, the watchdog
// plumbing, the recorder and the output check, with no child process.
func TestFinegrainSmoke(t *testing.T) {
	cfg := runConfig{seed: 5, seconds: 3}
	sys, subs, warm, _, err := setupFinegrain(cfg, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if warm.stalled || warm.failed != 0 || warm.ok < numClients*fgWarmOps || warm.ok != warm.sent {
		t.Fatalf("warm-up: %+v", warm.tally)
	}
	for _, ph := range []phase{
		{name: "sat", window: satWindow, dur: 200 * time.Millisecond, watchdog: 5 * time.Second},
		{name: "solo", window: soloWindow, dur: 200 * time.Millisecond, watchdog: 5 * time.Second},
	} {
		got := runFGRecorded(subs, ph, 1)
		if got.stalled || got.failed != 0 || got.ok == 0 || got.ok != got.sent {
			t.Fatalf("%s: %+v stalled=%v", ph.name, got.tally, got.stalled)
		}
		if got.Ops == 0 || got.P50US <= 0 || got.P99US < got.P50US {
			t.Errorf("%s: digest %+v", ph.name, got.phaseStats)
		}
	}
	sys.rt.Shutdown()
	res := newRunResult(workloads[3], cfg)
	if bad := sys.verify(subs, res); bad != 0 {
		t.Errorf("%d cell(s) off: %v", bad, res.Notes)
	}
	// The check must be able to fail: a lost update is a cell that is off.
	sys.clusters[0].sum--
	if bad := sys.verify(subs, newRunResult(workloads[3], cfg)); bad != 1 {
		t.Errorf("a lost update went unnoticed (%d cells off)", bad)
	}
}
