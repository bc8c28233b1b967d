// Command twe-fuzz is the deterministic schedule-fuzzing and
// differential-replay harness for the TWE schedulers (internal/schedfuzz).
//
// Fuzz mode generates one random-but-reproducible TWEL program per seed and
// runs it differentially: an analytic expected store, the formal-semantics
// interpreter, and the naive and tree schedulers across several perturbed
// schedules, all under the isolation oracle. Any divergence prints as a
// replayable (seed, schedule, scheduler) triple and the command exits 1.
//
// Fault mode (-faults) injects deterministic failures — panicking bodies,
// cancel-at-launch, and near-immediate deadlines — into a seed-chosen
// subset of each program's launched tasks, then checks that both
// schedulers agree on the surviving store, that every faulted future
// reports the right failure class, that the isolation oracle stays quiet,
// and that the schedulers quiesce (no leaked effects on any exit path).
//
// Batch mode (-batch) groups each program's launches into SubmitBatch
// calls at seed-derived boundaries (identical groups under every
// scheduler and schedule) and runs the same differential store/isolation/
// quiescence oracle against the batched admission path (DESIGN.md §12).
//
// Refinement mode (-refine) additionally records an obs event log on
// every runtime execution and replays it against the executable admission
// model (internal/spec): a history the model rejects fails the run even
// when stores match and the isolation oracle stayed quiet.
//
// Usage:
//
//	twe-fuzz [-seed N] [-n COUNT] [-schedules K] [-par P] [-timeout D]
//	         [-schedule M] [-sched naive|tree] [-faults] [-batch] [-refine]
//	         [-shrink] [-budget B] [-dump] [-v]
//
// Fuzzing a range:       twe-fuzz -seed 0 -n 1000
// Fault injection:       twe-fuzz -faults -seed 0 -n 200
// Batched admission:     twe-fuzz -batch -seed 0 -n 200
// Refinement check:      twe-fuzz -refine -seed 0 -n 200
// Replaying a failure:   twe-fuzz -seed 42 -schedule 3 -sched tree
// Inspecting a program:  twe-fuzz -seed 42 -dump
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"twe/internal/lang"
	"twe/internal/schedfuzz"
)

func main() {
	seed := flag.Int64("seed", 0, "first seed (the program generator is a pure function of the seed)")
	n := flag.Int("n", 100, "number of seeds to fuzz (ignored when -schedule or -sched is given)")
	schedules := flag.Int("schedules", 3, "perturbed schedules per scheduler, in addition to the unperturbed schedule 0")
	par := flag.Int("par", 4, "runtime worker parallelism")
	timeout := flag.Duration("timeout", 30*time.Second, "per-execution timeout before reporting a suspected deadlock")
	schedule := flag.Int("schedule", -1, "replay only this schedule index for -seed (-1 = sweep all)")
	sched := flag.String("sched", "", "replay only this scheduler: "+strings.Join(schedfuzz.Schedulers(), ", ")+" (empty = all)")
	shrink := flag.Bool("shrink", false, "on failure, greedily shrink the failing program and print the minimized source")
	budget := flag.Int("budget", 200, "shrink budget: max differential re-runs while minimizing")
	dump := flag.Bool("dump", false, "print the generated TWEL program for -seed and exit")
	faults := flag.Bool("faults", false, "inject deterministic faults (panic/cancel/deadline) into launched tasks")
	batch := flag.Bool("batch", false, "group launches into SubmitBatch calls at seed-derived boundaries")
	refine := flag.Bool("refine", false, "record an event log per execution and replay it against the admission model (internal/spec)")
	verbose := flag.Bool("v", false, "print per-seed progress")
	flag.Parse()

	if *sched != "" && !slices.Contains(schedfuzz.Schedulers(), *sched) {
		fmt.Fprintf(os.Stderr, "twe-fuzz: unknown scheduler %q (want %s)\n",
			*sched, strings.Join(schedfuzz.Schedulers(), ", "))
		os.Exit(2)
	}
	if *faults && *batch {
		fmt.Fprintln(os.Stderr, "twe-fuzz: -faults and -batch are separate modes; pick one")
		os.Exit(2)
	}

	cfg := schedfuzz.Config{Schedules: *schedules, Parallelism: *par, Timeout: *timeout, Refine: *refine}

	if *dump {
		spec := schedfuzz.Generate(*seed)
		prog, err := schedfuzz.Render(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "twe-fuzz: seed %d: %v\n", *seed, err)
			os.Exit(1)
		}
		fmt.Printf("// seed %d: %d tasks, %d instances\n%s", *seed, len(spec.Tasks), spec.Instances(), lang.Format(prog))
		return
	}

	// Replay mode: a single seed, optionally pinned to one scheduler and
	// one schedule index.
	if *schedule >= 0 || *sched != "" {
		var fails []*schedfuzz.Failure
		switch {
		case *faults:
			fails = schedfuzz.ReplayFaults(*seed, *sched, *schedule, cfg)
		case *batch:
			fails = schedfuzz.ReplayBatch(*seed, *sched, *schedule, cfg)
		default:
			fails = schedfuzz.Replay(*seed, *sched, *schedule, cfg)
		}
		report(fails, cfg, *shrink, *budget, *faults, *batch)
		if len(fails) > 0 {
			os.Exit(1)
		}
		fmt.Printf("seed %d: ok\n", *seed)
		return
	}

	start := time.Now()
	progress := func(s int64, fails []*schedfuzz.Failure) {
		if *verbose {
			status := "ok"
			if len(fails) > 0 {
				status = fmt.Sprintf("%d FAILURE(S)", len(fails))
			}
			fmt.Printf("seed %d: %s\n", s, status)
		}
	}
	var rep *schedfuzz.Report
	mode := "fuzzed"
	switch {
	case *faults:
		rep = schedfuzz.FuzzFaults(*seed, *n, cfg, progress)
		mode = "fault-injected"
	case *batch:
		rep = schedfuzz.FuzzBatch(*seed, *n, cfg, progress)
		mode = "batch-admitted"
	default:
		rep = schedfuzz.Fuzz(*seed, *n, cfg, progress)
	}
	fmt.Printf("%s %d programs (%d task instances) in %v: %d failure(s)\n",
		mode, rep.Programs, rep.Instances, time.Since(start).Round(time.Millisecond), len(rep.Failures))
	if *batch {
		fmt.Printf("flushed %d multi-task SubmitBatch group(s)\n", rep.BatchGroups)
	}
	report(rep.Failures, cfg, *shrink, *budget, *faults, *batch)
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}

// report prints each failure with its replay command line, shrinking the
// first failing seed when requested (shrinking operates on the un-faulted,
// per-task-submitted program, so it is skipped in fault and batch modes).
func report(fails []*schedfuzz.Failure, cfg schedfuzz.Config, shrink bool, budget int, faults, batch bool) {
	mode := ""
	switch {
	case faults:
		mode = "-faults "
	case batch:
		mode = "-batch "
	}
	shrunkSeeds := map[int64]bool{}
	for _, f := range fails {
		fmt.Printf("FAIL %v\n", f)
		fmt.Printf("     replay: twe-fuzz %s-seed %d -schedule %d -sched %s\n", mode, f.Seed, f.Schedule, f.Scheduler)
		if !shrink || faults || batch || shrunkSeeds[f.Seed] || f.Scheduler == "gen" || f.Scheduler == "interp" {
			continue
		}
		shrunkSeeds[f.Seed] = true
		min := schedfuzz.Shrink(schedfuzz.Generate(f.Seed), cfg, budget)
		if prog, err := schedfuzz.Render(min); err == nil {
			fmt.Printf("     shrunk program (still failing):\n%s", lang.Format(prog))
		}
	}
}
