package naive_test

import (
	"strings"
	"testing"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/naive"
	"twe/internal/obs"
)

// TestConflictStallAttribution is the naive-scheduler twin of the tree
// test: the queue-scan conflict check must attribute a stalled task to
// the first conflicting (holder effect, stalled effect) pair it finds.
func TestConflictStallAttribution(t *testing.T) {
	tr := obs.New()
	rt := core.NewRuntime(naive.New(), 2, core.WithTracer(tr))
	defer rt.Shutdown()

	running := make(chan struct{})
	gate := make(chan struct{})
	hold := core.NewTask("hold", es("writes A:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		close(running)
		<-gate
		return nil, nil
	})
	rival := core.NewTask("rival", es("reads B, writes A:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		return nil, nil
	})
	fh := rt.ExecuteLater(hold, nil)
	<-running
	fr := rt.ExecuteLater(rival, nil)
	close(gate)
	rt.GetValue(fh)
	rt.GetValue(fr)

	other, path, desc, ok := fr.WaitFor()
	if !ok {
		t.Fatal("stalled rival carries no wait-for attribution")
	}
	if other != fh.Seq() {
		t.Errorf("attributed to T%d, want holder T%d", other, fh.Seq())
	}
	// The naive scan attributes to the holder's conflicting effect — the
	// write on A:[1]; the rival's non-conflicting read of B must not
	// surface.
	if path != "Root:A:[1]" {
		t.Errorf("attributed path %q, want Root:A:[1]", path)
	}
	if !strings.Contains(desc, "hold") || !strings.Contains(desc, "Root:A:[1]") {
		t.Errorf("attribution %q does not name the holder task and effect", desc)
	}
	if ns, n := tr.Contention().Total(); ns <= 0 || n != 1 {
		t.Fatalf("contention profile = %dns over %d, want one positive stall", ns, n)
	}
}

// stallCycle runs one stall-then-admit cycle: a rival submitted while a
// conflicting holder runs must wait, and is admitted once the holder
// finishes. It returns the rival's future.
func stallCycle(rt *core.Runtime, eff effect.Set) *core.Future {
	running := make(chan struct{})
	gate := make(chan struct{})
	hold := core.NewTask("hold", eff, func(_ *core.Ctx, _ any) (any, error) {
		close(running)
		<-gate
		return nil, nil
	})
	rival := core.NewTask("rival", eff, func(_ *core.Ctx, _ any) (any, error) {
		return nil, nil
	})
	fh := rt.ExecuteLater(hold, nil)
	<-running
	fr := rt.ExecuteLater(rival, nil)
	close(gate)
	rt.GetValue(fh)
	rt.GetValue(fr)
	return fr
}

// minAllocs is the smallest of three AllocsPerRun measurements of the
// stall cycle, so a stray runtime allocation cannot decide a comparison.
func minAllocs(rt *core.Runtime, eff effect.Set) float64 {
	best := -1.0
	for i := 0; i < 3; i++ {
		a := testing.AllocsPerRun(50, func() { stallCycle(rt, eff) })
		if best < 0 || a < best {
			best = a
		}
	}
	return best
}

// TestRinglessTracerSkipsAttribution is the naive twin of the tree
// test: a tracer built without its event ring keeps the admission
// metrics, but a stalled task gets no wait-for attribution and the
// stall-then-admit cycle allocates exactly what it does on an untraced
// runtime.
func TestRinglessTracerSkipsAttribution(t *testing.T) {
	eff := es("writes A:[1]")
	tr := obs.New(obs.WithoutRing())
	rt := core.NewRuntime(naive.New(), 2, core.WithTracer(tr))
	defer rt.Shutdown()

	fr := stallCycle(rt, eff)
	if _, _, desc, ok := fr.WaitFor(); ok {
		t.Fatalf("ring-less tracer recorded wait-for attribution %q", desc)
	}
	m := tr.Metrics().Snapshot()
	if m.ConflictHits == 0 {
		t.Fatal("the rival never stalled: the cycle tests nothing")
	}
	if m.AdmissionCount != 2 {
		t.Fatalf("admission histogram count = %d, want 2", m.AdmissionCount)
	}
	if _, n := tr.Contention().Total(); n != 0 || tr.Len() != 0 {
		t.Fatalf("ring-less tracer recorded %d contention observations, %d events", n, tr.Len())
	}

	untraced := core.NewRuntime(naive.New(), 2)
	defer untraced.Shutdown()
	want := minAllocs(untraced, eff)
	if got := minAllocs(rt, eff); got != want {
		t.Fatalf("stall cycle allocates %v with a ring-less tracer, %v untraced", got, want)
	}
}
