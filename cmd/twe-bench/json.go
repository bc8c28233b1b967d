// JSON benchmark mode: perf-trajectory snapshots for regression tracking.
//
// `twe-bench -json <dir>` runs every registry workload (internal/workloads,
// the same CI-sized inputs cmd/twe-trace uses) under both schedulers across
// the -threads sweep and writes one BENCH_<workload>.json per workload.
// The schema is documented in EXPERIMENTS.md ("Perf-trajectory JSON");
// sessions diff these files to catch scheduler-overhead regressions that
// the human-readable figure tables hide.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/obs"
	"twe/internal/rpl"
	"twe/internal/workloads"
)

// benchRun is one (scheduler × parallelism) measurement of a workload.
type benchRun struct {
	Scheduler       string  `json:"scheduler"`
	Par             int     `json:"par"`
	Reps            int     `json:"reps"`
	NsPerOp         int64   `json:"ns_per_op"` // median wall time of one full run
	MinNs           int64   `json:"min_ns"`
	MaxNs           int64   `json:"max_ns"`
	Tasks           uint64  `json:"tasks"`           // tasks per run (submits + spawns)
	TasksPerSec     float64 `json:"tasks_per_sec"`   // tasks / median seconds
	ConflictChecks  uint64  `json:"conflict_checks"` // per run (averaged over reps)
	ConflictHits    uint64  `json:"conflict_hits"`
	ConflictHitRate float64 `json:"conflict_hit_rate"`
	Blocks          uint64  `json:"blocks"`
	Transfers       uint64  `json:"transfers"`
	// Batched-admission counters (DESIGN.md §12), per run; zero for
	// workloads that never call SubmitBatch.
	BatchSubmits  uint64 `json:"batch_submits,omitempty"`
	BatchTasks    uint64 `json:"batch_tasks,omitempty"`
	BatchDescents uint64 `json:"batch_descents,omitempty"`
	// Effectful submissions that entered the tree's locked descent (zero
	// under naive) and the pool steal count (DESIGN.md §17), per run.
	SlowAdmits uint64 `json:"slow_admits,omitempty"`
	PoolSteals uint64 `json:"pool_steals,omitempty"`
}

// submitBench is the admission microbenchmark recorded alongside the
// "batch" workload: submissions/sec of per-task ExecuteLater vs one
// SubmitBatch call for a conflict-free 64-task group (the same shape as
// BenchmarkSubmitBatch in bench_test.go; only the submission phase is
// timed, each round still drains before the next).
type submitBench struct {
	Scheduler         string  `json:"scheduler"`
	Par               int     `json:"par"`
	Batch             int     `json:"batch"`
	Rounds            int     `json:"rounds"`
	PerTaskSubmitsSec float64 `json:"per_task_submits_per_sec"`
	BatchSubmitsSec   float64 `json:"batch_submits_per_sec"`
	Speedup           float64 `json:"speedup"` // batch / per-task
}

// benchFile is the BENCH_<workload>.json document.
type benchFile struct {
	SchemaVersion int        `json:"schema_version"`
	Workload      string     `json:"workload"`
	GeneratedBy   string     `json:"generated_by"`
	Runs          []benchRun `json:"runs"`
	// SubmitBench is present only in BENCH_batch.json: the batched vs
	// per-task admission comparison per scheduler.
	SubmitBench []submitBench `json:"submit_bench,omitempty"`
}

// runJSON produces BENCH_<workload>.json for every registry workload (or
// the -apps subset). The "serve" workload is excluded unless named
// explicitly: its benchmark artifact is BENCH_serve.json from twe-load,
// which measures the wire path rather than an in-process replay.
func runJSON(dir string, threads []int, reps int, apps string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var selected map[string]bool
	if apps != "" {
		selected = make(map[string]bool)
		for _, name := range strings.Split(apps, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := workloads.Get(name); err != nil {
				return err
			}
			selected[name] = true
		}
	}
	for _, w := range workloads.All() {
		if selected != nil && !selected[w.Name] {
			continue
		}
		if selected == nil && w.Name == "serve" {
			fmt.Printf("skipping %s (benchmarked over the wire by twe-load; pass -apps serve to force)\n", w.Name)
			continue
		}
		doc := benchFile{SchemaVersion: 1, Workload: w.Name, GeneratedBy: "twe-bench -json"}
		for _, sched := range []struct {
			name string
			mk   func() core.Scheduler
		}{{"tree", mkTree}, {"naive", mkNaive}} {
			for _, par := range threads {
				r, err := measureJSON(w, sched.name, sched.mk, par, reps)
				if err != nil {
					return fmt.Errorf("%s/%s@%d: %w", w.Name, sched.name, par, err)
				}
				doc.Runs = append(doc.Runs, r)
			}
			if w.Name == "batch" {
				sb, err := measureSubmitBench(sched.name, sched.mk, threads[len(threads)-1])
				if err != nil {
					return fmt.Errorf("%s/%s submit bench: %w", w.Name, sched.name, err)
				}
				doc.SubmitBench = append(doc.SubmitBench, sb)
			}
		}
		path := filepath.Join(dir, "BENCH_"+w.Name+".json")
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d runs)\n", path, len(doc.Runs))
	}
	return nil
}

// measureJSON times reps runs of w under one scheduler/parallelism and
// folds in the tracer's scheduler metrics. One metrics-only tracer spans
// all reps; per-run counters divide by reps.
func measureJSON(w workloads.Workload, schedName string, mk func() core.Scheduler, par, reps int) (benchRun, error) {
	tr := obs.New(obs.WithCapacity(1024))
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := w.Run(mk, par, core.WithTracer(tr)); err != nil {
			return benchRun{}, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	med := times[len(times)/2]

	s := tr.Metrics().Snapshot()
	n := uint64(reps)
	tasks := (s.TasksSubmitted + s.Spawns) / n
	r := benchRun{
		Scheduler:       schedName,
		Par:             par,
		Reps:            reps,
		NsPerOp:         med.Nanoseconds(),
		MinNs:           times[0].Nanoseconds(),
		MaxNs:           times[len(times)-1].Nanoseconds(),
		Tasks:           tasks,
		ConflictChecks:  s.ConflictChecks / n,
		ConflictHits:    s.ConflictHits / n,
		ConflictHitRate: s.ConflictHitRate(),
		Blocks:          s.Blocks / n,
		Transfers:       s.Transfers / n,
		BatchSubmits:    s.BatchSubmits / n,
		BatchTasks:      s.BatchTasks / n,
		BatchDescents:   s.BatchDescents / n,
		SlowAdmits:      s.AdmitSlowpath / n,
		PoolSteals:      s.PoolSteals / n,
	}
	if sec := med.Seconds(); sec > 0 {
		r.TasksPerSec = float64(tasks) / sec
	}
	return r, nil
}

// measureSubmitBench times the admission phase of per-task ExecuteLater vs
// SubmitBatch for a conflict-free 64-task group under a shared namespace
// prefix, draining between rounds (untimed), exactly like
// BenchmarkSubmitBatch in bench_test.go.
func measureSubmitBench(schedName string, mk func() core.Scheduler, par int) (submitBench, error) {
	const batch, rounds, warmup = 64, 300, 30
	rt := core.NewRuntime(mk(), par)
	defer rt.Shutdown()
	tasks := make([]*core.Task, batch)
	subs := make([]core.Submission, batch)
	for i := range tasks {
		tasks[i] = core.NewTask("t",
			effect.NewSet(effect.WriteEff(rpl.New(rpl.N("srv"), rpl.N("data"), rpl.N("R"), rpl.Idx(i)))),
			func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
		subs[i] = core.Submission{Task: tasks[i]}
	}
	futs := make([]*core.Future, batch)
	var perTask, batched time.Duration
	for r := 0; r < warmup+rounds; r++ {
		start := time.Now()
		for j, t := range tasks {
			futs[j] = rt.ExecuteLater(t, nil)
		}
		if r >= warmup {
			perTask += time.Since(start)
		}
		if err := rt.WaitAll(futs); err != nil {
			return submitBench{}, err
		}
	}
	for r := 0; r < warmup+rounds; r++ {
		start := time.Now()
		fs := rt.SubmitBatch(subs)
		if r >= warmup {
			batched += time.Since(start)
		}
		if err := rt.WaitAll(fs); err != nil {
			return submitBench{}, err
		}
	}
	sb := submitBench{Scheduler: schedName, Par: par, Batch: batch, Rounds: rounds}
	if s := perTask.Seconds(); s > 0 {
		sb.PerTaskSubmitsSec = float64(rounds*batch) / s
	}
	if s := batched.Seconds(); s > 0 {
		sb.BatchSubmitsSec = float64(rounds*batch) / s
	}
	if sb.PerTaskSubmitsSec > 0 {
		sb.Speedup = sb.BatchSubmitsSec / sb.PerTaskSubmitsSec
	}
	return sb, nil
}
