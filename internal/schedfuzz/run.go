package schedfuzz

import (
	"fmt"
	"strings"
	"time"

	"twe/internal/core"
	"twe/internal/isolcheck"
	"twe/internal/lang"
	"twe/internal/sched"
	"twe/internal/semantics"
)

// Config parameterizes a fuzz run.
type Config struct {
	// Schedules is the number of perturbed schedules per program per
	// scheduler, in addition to the unperturbed schedule 0.
	Schedules int
	// Parallelism is the worker count of each runtime (default 4).
	Parallelism int
	// Timeout bounds one runtime execution; exceeding it is reported as a
	// suspected deadlock/livelock (default 30s — generated programs finish
	// in milliseconds, so a stuck run is a real finding, not noise).
	Timeout time.Duration
	// MaxSteps bounds the semantics interpreter (default 2_000_000).
	MaxSteps int
	// Refine additionally records an event log on every runtime execution
	// and replays it against the executable admission model
	// (spec.Refine); a history the model rejects is a Refinement failure.
	Refine bool

	// Replay filters, set via Replay: restrict the sweep to one scheduler
	// ("" = all) and one schedule index (-1 = all).
	filtered      bool
	onlyScheduler string
	onlySchedule  int
}

func (c Config) withDefaults() Config {
	if !c.filtered {
		c.onlyScheduler, c.onlySchedule = "", -1
	}
	if c.Schedules <= 0 {
		c.Schedules = 3
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 2_000_000
	}
	return c
}

// FailKind classifies a divergence.
type FailKind string

// Failure kinds, ordered roughly by the layer that misbehaved.
const (
	// GeneratorInvalid: the generated program failed the static checker —
	// a schedfuzz bug, not a scheduler bug.
	GeneratorInvalid FailKind = "generator-invalid"
	// InterpStuck: the formal-semantics interpreter did not quiesce.
	InterpStuck FailKind = "interp-stuck"
	// InterpViolation: the interpreter's own isolation oracle fired.
	InterpViolation FailKind = "interp-violation"
	// InterpStoreMismatch: interpreter store differs from the analytic
	// expectation.
	InterpStoreMismatch FailKind = "interp-store-mismatch"
	// RuntimeError: a runtime execution returned an error.
	RuntimeError FailKind = "runtime-error"
	// Deadlock: a runtime execution exceeded the timeout.
	Deadlock FailKind = "deadlock"
	// Isolation: the isolcheck oracle observed two interfering tasks
	// running concurrently under a real scheduler.
	Isolation FailKind = "isolation"
	// StoreMismatch: a real scheduler produced a different final store.
	StoreMismatch FailKind = "store-mismatch"
	// Refinement: the run's event log is not a behavior of the executable
	// admission model (Config.Refine runs only).
	Refinement FailKind = "refinement"
)

// Failure is one divergence, replayable from (Seed, Schedule, Scheduler).
type Failure struct {
	Seed      int64
	Schedule  int
	Scheduler string // "naive", "tree", "interp", or "gen"
	Kind      FailKind
	Detail    string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("seed=%d schedule=%d scheduler=%s kind=%s: %s",
		f.Seed, f.Schedule, f.Scheduler, f.Kind, f.Detail)
}

// schedulerNames are the runtime schedulers under differential test: the
// naive baseline, which serves as the oracle, and the tree.
var schedulerNames = []string{"naive", "tree"}

// Schedulers returns the names in the differential set, for harness
// front-ends validating a -sched replay filter.
func Schedulers() []string {
	out := make([]string, len(schedulerNames))
	copy(out, schedulerNames)
	return out
}

// pendingCount lets the harness report how many tasks were still waiting
// when a run timed out; all schedulers implement it.
type pendingCount interface{ Pending() int }

// newScheduler builds a fresh scheduler instance via the sched registry.
func newScheduler(name string) core.Scheduler {
	s, err := sched.New(sched.Config{Name: name})
	if err != nil {
		panic("schedfuzz: " + err.Error())
	}
	return s
}

// runOnRuntime executes the program's main task on a fresh runtime with the
// named scheduler and the (seed, schedule) yielder, returning the final
// store. The run is bounded by cfg.Timeout: on expiry the runtime is left
// running (its goroutines park forever on a real deadlock) and a Deadlock
// failure with pending-queue diagnostics is returned instead of a store.
func runOnRuntime(prog *lang.Program, name string, seed int64, schedule int, cfg Config) (Store, *Failure) {
	sched := newScheduler(name)
	chk := isolcheck.New()
	opts := []core.Option{core.WithMonitor(chk)}
	if schedule != 0 {
		opts = append(opts, core.WithYield(Yielder(seed, schedule)))
	}
	tr := refineTracer(cfg)
	opts = withRefineTracer(opts, tr)
	rt := core.NewRuntime(sched, cfg.Parallelism, opts...)

	fail := func(kind FailKind, format string, args ...any) *Failure {
		return &Failure{Seed: seed, Schedule: schedule, Scheduler: name,
			Kind: kind, Detail: fmt.Sprintf(format, args...)}
	}

	c, err := lang.Compile(prog, rt)
	if err != nil {
		return Store{}, fail(RuntimeError, "compile: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		err := c.Run("main")
		rt.Shutdown() // drain fire-and-forget launches before snapshotting
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			return Store{}, fail(RuntimeError, "run: %v", err)
		}
	case <-time.After(cfg.Timeout):
		detail := fmt.Sprintf("no quiescence after %v", cfg.Timeout)
		if pc, ok := sched.(pendingCount); ok {
			detail += fmt.Sprintf("; %d task(s) still pending in scheduler queue", pc.Pending())
		}
		return Store{}, fail(Deadlock, "%s", detail)
	}

	if vs := chk.Violations(); len(vs) > 0 {
		msgs := make([]string, 0, len(vs))
		for _, v := range vs {
			msgs = append(msgs, v.String())
		}
		return Store{}, fail(Isolation, "%d violation(s): %s", len(vs), strings.Join(msgs, "; "))
	}
	if f := refineCheck(tr, seed, schedule, name); f != nil {
		return Store{}, f
	}
	return Store{Globals: c.Globals(), Arrays: c.Arrays()}, nil
}

// RunSpec runs one spec differentially: the analytic expected store, the
// formal-semantics interpreter (ground truth), and each real scheduler
// across the unperturbed schedule plus cfg.Schedules perturbed ones. It
// returns every divergence found (empty slice = the spec passed).
func RunSpec(spec *Spec, cfg Config) []*Failure {
	cfg = cfg.withDefaults()
	seed := spec.Seed

	prog, err := Render(spec)
	if err != nil {
		return []*Failure{{Seed: seed, Scheduler: "gen", Kind: GeneratorInvalid, Detail: err.Error()}}
	}
	expected := spec.ExpectedStore()

	// Ground truth: the small-step interpreter under a seed-derived random
	// schedule. Its store must match the analytic expectation exactly.
	out, err := semantics.Execute(prog, "main", seed, cfg.MaxSteps)
	if err != nil {
		return []*Failure{{Seed: seed, Scheduler: "interp", Kind: RuntimeError, Detail: err.Error()}}
	}
	if len(out.Violations) > 0 {
		return []*Failure{{Seed: seed, Scheduler: "interp", Kind: InterpViolation,
			Detail: fmt.Sprintf("%v", out.Violations)}}
	}
	if !out.Quiesced {
		return []*Failure{{Seed: seed, Scheduler: "interp", Kind: InterpStuck,
			Detail: fmt.Sprintf("no quiescence within %d steps", cfg.MaxSteps)}}
	}
	interpStore := Store{Globals: out.Globals, Arrays: out.Arrays}
	if !interpStore.Equal(expected) {
		return []*Failure{{Seed: seed, Scheduler: "interp", Kind: InterpStoreMismatch,
			Detail: DiffStores("expected", expected, "interp", interpStore)}}
	}

	var fails []*Failure
	for _, name := range schedulerNames {
		if cfg.onlyScheduler != "" && name != cfg.onlyScheduler {
			continue
		}
		for schedule := 0; schedule <= cfg.Schedules; schedule++ {
			if cfg.onlySchedule >= 0 && schedule != cfg.onlySchedule {
				continue
			}
			st, fail := runOnRuntime(prog, name, seed, schedule, cfg)
			if fail != nil {
				fails = append(fails, fail)
				continue
			}
			if !st.Equal(expected) {
				fails = append(fails, &Failure{Seed: seed, Schedule: schedule, Scheduler: name,
					Kind: StoreMismatch, Detail: DiffStores("expected", expected, name, st)})
			}
		}
	}
	return fails
}

// Replay deterministically re-runs the program of one seed, optionally
// restricted to a single scheduler ("naive"/"tree", "" = both) and a single
// schedule index (negative = 0..cfg.Schedules). The interpreter ground
// truth always runs. This is the engine behind `twe-fuzz -seed N
// -schedule M`.
func Replay(seed int64, scheduler string, schedule int, cfg Config) []*Failure {
	cfg.filtered = true
	cfg.onlyScheduler = scheduler
	cfg.onlySchedule = schedule
	if schedule > cfg.Schedules {
		cfg.Schedules = schedule
	}
	return RunSpec(Generate(seed), cfg)
}

// FuzzOne generates and differentially runs the program for one seed.
func FuzzOne(seed int64, cfg Config) []*Failure {
	return RunSpec(Generate(seed), cfg)
}

// Report summarizes a fuzz campaign.
type Report struct {
	Programs  int
	Failures  []*Failure
	Instances int // total task instances across all generated programs
	// BatchGroups counts SubmitBatch groups of size >= 2 flushed during a
	// batched campaign (FuzzBatch); zero in the other modes.
	BatchGroups int64
}

// Fuzz runs seeds [start, start+n) and collects all failures. progress, if
// non-nil, is invoked after each seed.
func Fuzz(start int64, n int, cfg Config, progress func(seed int64, fails []*Failure)) *Report {
	rep := &Report{}
	for i := 0; i < n; i++ {
		seed := start + int64(i)
		spec := Generate(seed)
		rep.Programs++
		rep.Instances += spec.Instances()
		fails := RunSpec(spec, cfg)
		rep.Failures = append(rep.Failures, fails...)
		if progress != nil {
			progress(seed, fails)
		}
	}
	return rep
}
