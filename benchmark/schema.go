package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"

	"twe/internal/svc"
)

// schemaVersion names the one report schema every mode of the harness
// writes and -compare reads.
const schemaVersion = 1

// metricDef declares one metric of the benchmark. BENCHMARK.json lists
// the same names, units, directions and bounds; a test keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, with the share of
// the parent's median each may worsen by before a change is rejected.
// The ISSUE proposed 7-15 %; two sets of ten runs on the reference host
// scattered by up to 16 % and their medians drifted apart by up to 10 %
// (README "Measured spread"), so every timing sits at the contract's
// cap of 25 %.
// The ISSUE's ninth metric, fail_ratio, is 0 on a healthy run, which a
// ratio-to-parent bound cannot express; it is printed by every run and
// carried by the result line's attempted/failed/correct fields instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"sat_p50_us", "us", "lower", 0.25},
	{"sat_p99_us", "us", "lower", 0.25},
	{"solo_p50_us", "us", "lower", 0.25},
	{"solo_p99_us", "us", "lower", 0.25},
	{"cpu_ms_per_kop", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// schedNames are the registered schedulers the ladder measures, the
// default first and the one known to stall last.
var schedNames = []string{"tree", "naive", "tree-rootmutex", "tree-lockfree"}

// perLayer are the metrics of single layers a traced run reports. They
// carry no bound. A metric that does not apply to a workload (cluster.*
// without a router, svc.* without a wire) reads 0 there.
var perLayer = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("rpl.disjoint_ns", "ns"), lo("rpl.included_ns", "ns"),
		lo("effect.noninterfering_ns", "ns"), lo("effect.covers_ns", "ns"),
		lo("effect.parse_ns", "ns"), lo("effect.intern_ns", "ns"),
		lo("effect.interner_resident", "count"),

		lo("tree.admit_ns", "ns"), lo("tree.admit_batch_ns_per_task", "ns"),
		hi("tree.fast_admits", "count"), lo("tree.slow_admits", "count"),
		hi("tree.fastpath_ratio", "ratio"),
		lo("tree.conflict_checks_per_op", "1/op"), lo("tree.conflict_hit_ratio", "ratio"),
		lo("tree.node_visits_per_op", "1/op"), lo("tree.queue_depth_peak", "count"),
		lo("tree.stall_ns_per_op", "ns"),
	}
	for _, s := range schedNames {
		defs = append(defs, hi("sched."+s+".ops_s", "1/s"), lo("sched."+s+".stalled", "count"))
	}
	return append(defs,
		lo("pool.handoff_ns", "ns"), lo("pool.steals_per_kop", "1/kop"),
		lo("pool.workers_started", "count"), hi("pool.running_peak", "count"),
		lo("core.submit_to_done_ns", "ns"), lo("core.blocks_per_kop", "1/kop"),
		lo("core.transfers_per_kop", "1/kop"),

		lo("svc.v1_encode_ns", "ns"), lo("svc.v1_decode_ns", "ns"),
		lo("svc.v2_encode_ns", "ns"), lo("svc.v2_decode_ns", "ns"),
		lo("svc.v1_bytes_per_req", "B"), lo("svc.v2_bytes_per_req", "B"),
		hi("svc.effcache_hit_ratio", "ratio"), lo("svc.eff_regs", "count"),
		lo("svc.phase_recv_us", "us"), lo("svc.phase_decode_us", "us"),
		lo("svc.phase_wait_us", "us"), lo("svc.phase_exec_us", "us"),
		lo("svc.phase_respond_us", "us"), lo("svc.phase_residual_ratio", "ratio"),
		lo("svc.inflight_peak", "count"), lo("svc.allocs_per_req", "1/op"),
		lo("svc.gc_pause_ms", "ms"), hi("svc.trace_overhead_ratio", "ratio"),
		lo("svc.stale_reads", "count"),

		lo("dyneff.retries_per_kop", "1/kop"), lo("dyneff.add_solo_p50_us", "us"),

		lo("cluster.route_ns", "ns"), lo("cluster.hop_us", "us"),
		lo("cluster.twopc_round_us", "us"), lo("cluster.fwd_per_kop", "1/kop"),
		lo("cluster.prep_per_kop", "1/kop"), lo("cluster.aborts", "count"),
		lo("cluster.member_imbalance", "ratio"),
		lo("cluster.router_cpu_ms_per_kop", "ms"), lo("cluster.member_cpu_ms_per_kop", "ms"),

		lo("loadgen.cpu_ms_per_kop", "ms"), lo("loadgen.reconnects", "count"),
		lo("harness.build_s", "s"),
	)
}()

// metricName is what every metric and workload name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// workloadSpec is one workload: the system it launches and the traffic
// it sends. Why records the reason the workload exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Proto is the wire protocol (svc.ProtoV1/2); 0 means no wire, the
	// runtime runs inside the harness process.
	Proto   int  `json:"proto"`
	Cluster bool `json:"cluster"` // twe-router in front of two twe-serve members
	// Par is each twe-serve's -par. Every other daemon flag is left at
	// its default, so a later change of a default is measured as users
	// get it.
	Par            int `json:"par"`
	ReconnectEvery int `json:"reconnect_every,omitempty"`
	Mix            mix `json:"mix"`
}

var workloads = []*workloadSpec{
	{
		Name:  "serve_v2_disjoint",
		Why:   "steady-state fast case: v2 codec, session, syscalls and pool hand-off do the work; effect refs bypass parsing and sessions never conflict",
		Proto: svc.ProtoV2, Par: 2,
		Mix: mix{PutFrac: 0.5, Ownership: "shard"},
	},
	{
		Name:  "serve_v1_contended",
		Why:   "same layers used the other way: JSON codec, effect text parse and cache misses after reconnects, tree slow path, waiter wake, wildcard scans, dyneff retry",
		Proto: svc.ProtoV1, Par: 2, ReconnectEvery: 2000,
		Mix: mix{PutFrac: 0.60, AddFrac: 0.15, ScanEvery: 32, HotFrac: 0.5, Ownership: "shard"},
	},
	{
		Name:  "cluster_2shard_mixed",
		Why:   "only workload where the router works: Route, memos, rewrite, forward hop and the 2pc coordinator on cross-shard scans; serve_v2_disjoint is its no-router control",
		Proto: svc.ProtoV2, Cluster: true, Par: 1,
		Mix: mix{PutFrac: 0.5, ScanEvery: 16, Ownership: "slot"},
	},
	{
		Name: "runtime_finegrain",
		Why:  "in-process Fig 6.3 reduction with ~100 ns bodies: no wire, so tree, pool and core are the whole cost and admission or hand-off changes show here first",
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Seconds   int                  `json:"seconds"`
	Sched     string               `json:"sched"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	FailRatio float64              `json:"fail_ratio"`
	Stale     int64                `json:"stale_reads"`
	Metrics   map[string]metricVal `json:"metrics"`
	// Samples gives, per latency metric, the ops behind it; Notes carries
	// the highest resolvable percentile and anything that went wrong.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
	// Windows keeps the per-window values behind each windowed metric.
	Windows map[string][]float64 `json:"windows,omitempty"`
}

func newRunResult(spec *workloadSpec, cfg runConfig) *runResult {
	return &runResult{Workload: spec.Name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds,
		Sched: cfg.schedOrDefault(), Metrics: map[string]metricVal{}, Samples: map[string]int{}}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// set stores metrics from name/value pairs, taking units from the
// catalogue so a metric can not be printed under two units.
func (r *runResult) set(defs []metricDef, kv map[string]float64) {
	for _, d := range defs {
		v, ok := kv[d.Name]
		if !ok {
			v = 0 // not applicable to this workload
		}
		r.Metrics[d.Name] = metricVal{Value: v, Unit: d.Unit}
	}
}

// abort ends a run that cannot go on: the reason is noted, every metric
// of defs reads 0 and the run counts as failed.
func (r *runResult) abort(defs []metricDef, format string, args ...any) *runResult {
	r.note(format, args...)
	r.Failed++
	r.set(defs, nil)
	r.finish()
	return r
}

// finish derives the verdict fields once every phase and check is in.
func (r *runResult) finish() {
	if r.Attempted < 1 {
		r.Attempted, r.Failed = 1, 1
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
}

// print writes the run as `name value unit` lines, one metric each.
func (r *runResult) print(defs []metricDef) {
	fmt.Printf("# workload %s seed %d sched %s traced %v\n", r.Workload, r.Seed, r.Sched, r.Traced)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("%s %s %s", d.Name, fmtValue(m.Value), m.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  # %d samples", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("fail_ratio %s ratio  # %d failed of %d attempted\n", fmtValue(r.FailRatio), r.Failed, r.Attempted)
	fmt.Printf("stale_reads %d count\n", r.Stale)
	for _, n := range r.Notes {
		fmt.Println("# " + n)
	}
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// resultLine is the contract's last line of standard output.
func (r *runResult) resultLine(defs []metricDef) string {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metricVal{}}
	for _, d := range defs {
		out.Metrics[d.Name] = r.Metrics[d.Name]
	}
	b, _ := json.Marshal(out) // plain structs and maps of floats always marshal
	return string(b)
}

// hostInfo fingerprints where a report was measured.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Kernel     string `json:"kernel"`
}

func fingerprint(root string) hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: "unknown", Kernel: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// report is the one schema: what -out writes and -compare reads.
type report struct {
	SchemaVersion int            `json:"schema_version"`
	Host          hostInfo       `json:"host"`
	Seed          int64          `json:"seed"` // first seed; rep i uses seed+i
	Reps          int            `json:"reps"`
	Seconds       int            `json:"seconds"`
	Traced        bool           `json:"traced"`
	EndToEnd      []metricDef    `json:"end_to_end"`
	PerLayer      []metricDef    `json:"per_layer"`
	Workloads     []*workloadRun `json:"workloads"`
}

type workloadRun struct {
	Spec *workloadSpec `json:"spec"`
	Runs []*runResult  `json:"runs"`
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this harness reads %d", path, rep.SchemaVersion, schemaVersion)
	}
	return &rep, nil
}

// values collects one metric over a workload's runs, in run order.
func (w *workloadRun) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
