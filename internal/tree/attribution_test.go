package tree_test

import (
	"strings"
	"testing"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/obs"
	"twe/internal/tree"
)

// TestConflictStallAttribution pins the wait-for chain end to end and
// deterministically: a rival submitted while a conflicting task holds its
// effects must (a) carry wait-for attribution naming the holder and the
// conflicting RPL path, and (b) have its full admission wait charged to
// that path in the tracer's contention profile.
func TestConflictStallAttribution(t *testing.T) {
	tr := obs.New()
	rt := core.NewRuntime(tree.New(), 2, core.WithTracer(tr))
	defer rt.Shutdown()

	running := make(chan struct{})
	gate := make(chan struct{})
	hold := core.NewTask("hold", es("writes A:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		close(running)
		<-gate
		return nil, nil
	})
	rival := core.NewTask("rival", es("writes A:[1]"), func(_ *core.Ctx, _ any) (any, error) {
		return nil, nil
	})
	fh := rt.ExecuteLater(hold, nil)
	<-running
	fr := rt.ExecuteLater(rival, nil) // conflicts with hold → stalls, attributed
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
	if path != "Root:A:[1]" {
		t.Errorf("attributed path %q, want Root:A:[1]", path)
	}
	if !strings.Contains(desc, "hold") || !strings.Contains(desc, "writes Root:A:[1]") {
		t.Errorf("attribution %q does not name the holder task and effect", desc)
	}

	ns, n := tr.Contention().Total()
	if ns <= 0 || n != 1 {
		t.Fatalf("contention profile = %dns over %d, want one positive stall", ns, n)
	}
	var found bool
	for _, e := range tr.Contention().TopK(10) {
		if e.Path == "Root:A:[1]" && e.StallNS == ns && e.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("contention TopK missing the stalled leaf: %+v", tr.Contention().TopK(10))
	}

	// The never-stalled holder must stay unattributed.
	if _, _, _, ok := fh.WaitFor(); ok {
		t.Error("holder grew wait-for attribution without ever stalling")
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

// TestRinglessTracerSkipsAttribution: a tracer built without its event
// ring keeps the admission metrics, but a stalled task gets no wait-for
// attribution and the stall-then-admit cycle allocates exactly what it
// does on an untraced runtime.
func TestRinglessTracerSkipsAttribution(t *testing.T) {
	eff := es("writes A:[1]")
	tr := obs.New(obs.WithoutRing())
	rt := core.NewRuntime(tree.New(), 2, core.WithTracer(tr))
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

	untraced := core.NewRuntime(tree.New(), 2)
	defer untraced.Shutdown()
	want := minAllocs(untraced, eff)
	if got := minAllocs(rt, eff); got != want {
		t.Fatalf("stall cycle allocates %v with a ring-less tracer, %v untraced", got, want)
	}
}
