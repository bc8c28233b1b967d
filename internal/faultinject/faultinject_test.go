package faultinject

import (
	"testing"

	"twe/internal/core"
	"twe/internal/dyneff"
	"twe/internal/naive"
	"twe/internal/obs"
	"twe/internal/tree"
)

var schedulers = []struct {
	name string
	mk   func() core.Scheduler
}{
	{"naive", func() core.Scheduler { return naive.New() }},
	{"tree", func() core.Scheduler { return tree.New() }},
}

// checkInvariants asserts the full fault-tolerance contract on one
// scenario outcome.
func checkInvariants(t *testing.T, out Outcome) {
	t.Helper()
	for _, v := range out.Violations {
		t.Errorf("isolation violation: %v", v)
	}
	if got, want := out.Sum(), out.Completed; got != want {
		t.Errorf("sum(counters) = %d, want %d (completed) — a faulted task leaked a write", got, want)
	}
	if !out.Quiesced {
		t.Error("runtime did not quiesce — leaked waiting tasks or effects")
	}
	if out.Panicked == 0 || out.Cancelled == 0 || out.DeadlineExceeded == 0 {
		t.Errorf("storm was not exercising all fault kinds: %+v", out)
	}
}

// TestScenarioInvariants is the main property test: for a spread of
// seeds, on both schedulers, every injected fault is contained, effects
// are released on every exit path, and the shard counters stay exact.
func TestScenarioInvariants(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 17}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, sc := range schedulers {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				out, err := RunScenario(Plan{Seed: seed}, sc.mk)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkInvariants(t, out)
			}
		})
	}
}

// TestScenarioDeterministicClassification: the same plan must resolve to
// the same per-class counts on repeat runs — fault assignment is a pure
// function of the seed, and classification must not race.
func TestScenarioDeterministicClassification(t *testing.T) {
	for _, sc := range schedulers {
		a, err := RunScenario(Plan{Seed: 5}, sc.mk)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		b, err := RunScenario(Plan{Seed: 5}, sc.mk)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if a.Completed != b.Completed || a.Cancelled != b.Cancelled ||
			a.Panicked != b.Panicked || a.DeadlineExceeded != b.DeadlineExceeded {
			t.Errorf("%s: classification not deterministic: %+v vs %+v", sc.name, a, b)
		}
	}
}

// TestScenarioEmitsFaultTelemetry runs a storm with a tracer attached and
// checks the new fault counters moved.
func TestScenarioEmitsFaultTelemetry(t *testing.T) {
	tr := obs.New()
	out, err := RunScenario(Plan{Seed: 2}, func() core.Scheduler { return tree.New() }, core.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, out)
	m := tr.Metrics()
	if got := m.TaskPanics.Load(); got != uint64(out.Panicked) {
		t.Errorf("TaskPanics = %d, want %d", got, out.Panicked)
	}
	// TasksCancelled counts descheduled finishes: each is a future that
	// classifies as Cancelled or DeadlineExceeded (cooperative winddowns
	// are not counted), so it is bounded by the two classes together.
	if got := m.TasksCancelled.Load(); got == 0 || got > uint64(out.Cancelled+out.DeadlineExceeded) {
		t.Errorf("TasksCancelled = %d, want in 1..%d", got, out.Cancelled+out.DeadlineExceeded)
	}
	if got := m.DeadlinesExceeded.Load(); got != uint64(out.DeadlineExceeded) {
		t.Errorf("DeadlinesExceeded = %d, want %d", got, out.DeadlineExceeded)
	}
}

// TestDyneffStormExactness: under forced conflicts with a bounded retry
// budget and the breaker in play, every ref ends exactly at its
// committed-increment count.
func TestDyneffStormExactness(t *testing.T) {
	out, err := RunDyneffStorm(DyneffPlan{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consistent() {
		t.Errorf("final %v != expected %v", out.Final, out.Expected)
	}
	if out.Committed == 0 {
		t.Error("no section ever committed")
	}
}

// TestDyneffStormBudgetExhaustion squeezes the retry budget so hard that
// some sections must exhaust it, and checks exactness still holds — an
// ErrTooManyRetries section contributes nothing.
func TestDyneffStormBudgetExhaustion(t *testing.T) {
	plan := DyneffPlan{
		Seed:       3,
		Refs:       2,
		Goroutines: 8,
		Sections:   64,
		Cfg:        dyneff.Config{MaxAttempts: 2, BreakerThreshold: 1 << 30},
	}
	out, err := RunDyneffStorm(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consistent() {
		t.Errorf("final %v != expected %v", out.Final, out.Expected)
	}
	if out.Committed+out.Exhausted != plan.Goroutines*plan.Sections {
		t.Errorf("committed %d + exhausted %d != %d sections",
			out.Committed, out.Exhausted, plan.Goroutines*plan.Sections)
	}
}

// TestDyneffStormBreaker makes the breaker cheap to trip and checks the
// trip count is reflected both on the registry and in the outcome.
func TestDyneffStormBreaker(t *testing.T) {
	tr := obs.New()
	plan := DyneffPlan{
		Seed:       4,
		Refs:       2,
		Goroutines: 8,
		Sections:   64,
		Cfg:        dyneff.Config{BreakerThreshold: 2, BreakerCooldown: 1},
	}
	out, err := RunDyneffStorm(plan, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consistent() {
		t.Errorf("final %v != expected %v", out.Final, out.Expected)
	}
	if out.BreakerTrips == 0 {
		t.Skip("no conflicts materialized on this run (scheduler got lucky); nothing to assert")
	}
	if got := tr.Metrics().DyneffBreakerTrips.Load(); got != uint64(out.BreakerTrips) {
		t.Errorf("metric DyneffBreakerTrips = %d, registry reports %d", got, out.BreakerTrips)
	}
}
