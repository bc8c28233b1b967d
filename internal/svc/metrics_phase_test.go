package svc

import (
	"strings"
	"testing"
)

// TestLatHistBucketBoundaries pins the inclusive upper-bound semantics of
// the service-layer histogram (same geometry as the runtime's admission
// histogram, internal/obs): an observation exactly on a bound lands in
// that bound's bucket, one past it in the next.
func TestLatHistBucketBoundaries(t *testing.T) {
	var h latHist
	for _, b := range latBounds {
		h.Observe(b)
	}
	h.Observe(latBounds[len(latBounds)-1] + 1) // +Inf
	h.Observe(-7)                              // clamped to 0 → first bucket
	for i := range latBounds {
		want := int64(1)
		if i == 0 {
			want = 2 // the bound itself + the clamped negative
		}
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d (le=%s) = %d, want %d", i, latLabels[i], got, want)
		}
	}
	if inf := h.buckets[len(latBounds)].Load(); inf != 1 {
		t.Errorf("+Inf bucket = %d, want 1", inf)
	}
	if h.count.Load() != int64(len(latBounds))+2 {
		t.Errorf("count = %d, want %d", h.count.Load(), len(latBounds)+2)
	}
	if h.sumNS.Load() != 1e3+1e4+1e5+1e6+1e7+1e8+1e9+1e9+1 {
		t.Errorf("sum = %d (negative observation must clamp to 0)", h.sumNS.Load())
	}
}

// TestPhaseHistogramExpositionGolden pins the twe_serve_phase_seconds
// family text: one HELP/TYPE header, then every phase's series with the
// phase label merged into each sample's label set (and suffixed on
// _sum/_count), in declaration order.
func TestPhaseHistogramExpositionGolden(t *testing.T) {
	var m Metrics
	m.Phase[PhaseRecv].Observe(500)   // ≤1µs
	m.Phase[PhaseDecode].Observe(2e4) // ≤0.0001
	m.Phase[PhaseWait].Observe(5e9)   // +Inf
	m.Phase[PhaseExec].Observe(1e6)   // ≤0.001 (inclusive bound)
	// PhaseRespond deliberately unobserved: all-zero series must still render.

	var buf strings.Builder
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	i := strings.Index(out, "# HELP twe_serve_phase_seconds")
	if i < 0 {
		t.Fatalf("phase family missing from exposition:\n%s", out)
	}
	got := out[i:]
	const want = `# HELP twe_serve_phase_seconds Request time per phase (recv/decode/wait/exec/respond); populated only with request tracing on.
# TYPE twe_serve_phase_seconds histogram
twe_serve_phase_seconds_bucket{phase="recv",le="1e-06"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="1e-05"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="0.0001"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="0.001"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="0.01"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="0.1"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="1"} 1
twe_serve_phase_seconds_bucket{phase="recv",le="+Inf"} 1
twe_serve_phase_seconds_sum{phase="recv"} 5e-07
twe_serve_phase_seconds_count{phase="recv"} 1
twe_serve_phase_seconds_bucket{phase="decode",le="1e-06"} 0
twe_serve_phase_seconds_bucket{phase="decode",le="1e-05"} 0
twe_serve_phase_seconds_bucket{phase="decode",le="0.0001"} 1
twe_serve_phase_seconds_bucket{phase="decode",le="0.001"} 1
twe_serve_phase_seconds_bucket{phase="decode",le="0.01"} 1
twe_serve_phase_seconds_bucket{phase="decode",le="0.1"} 1
twe_serve_phase_seconds_bucket{phase="decode",le="1"} 1
twe_serve_phase_seconds_bucket{phase="decode",le="+Inf"} 1
twe_serve_phase_seconds_sum{phase="decode"} 2e-05
twe_serve_phase_seconds_count{phase="decode"} 1
twe_serve_phase_seconds_bucket{phase="wait",le="1e-06"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="1e-05"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="0.0001"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="0.001"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="0.01"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="0.1"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="1"} 0
twe_serve_phase_seconds_bucket{phase="wait",le="+Inf"} 1
twe_serve_phase_seconds_sum{phase="wait"} 5
twe_serve_phase_seconds_count{phase="wait"} 1
twe_serve_phase_seconds_bucket{phase="exec",le="1e-06"} 0
twe_serve_phase_seconds_bucket{phase="exec",le="1e-05"} 0
twe_serve_phase_seconds_bucket{phase="exec",le="0.0001"} 0
twe_serve_phase_seconds_bucket{phase="exec",le="0.001"} 1
twe_serve_phase_seconds_bucket{phase="exec",le="0.01"} 1
twe_serve_phase_seconds_bucket{phase="exec",le="0.1"} 1
twe_serve_phase_seconds_bucket{phase="exec",le="1"} 1
twe_serve_phase_seconds_bucket{phase="exec",le="+Inf"} 1
twe_serve_phase_seconds_sum{phase="exec"} 0.001
twe_serve_phase_seconds_count{phase="exec"} 1
twe_serve_phase_seconds_bucket{phase="respond",le="1e-06"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="1e-05"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="0.0001"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="0.001"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="0.01"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="0.1"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="1"} 0
twe_serve_phase_seconds_bucket{phase="respond",le="+Inf"} 0
twe_serve_phase_seconds_sum{phase="respond"} 0
twe_serve_phase_seconds_count{phase="respond"} 0
`
	if got != want {
		t.Errorf("phase exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConnGaugeAndRegsExposition pins the live-connection gauge family and
// the renamed effect-registrations counter.
func TestConnGaugeAndRegsExposition(t *testing.T) {
	var m Metrics
	m.V1Live.Store(2)
	m.V2Live.Store(3)
	m.EffRegs.Store(17)
	var buf strings.Builder
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE twe_serve_conns gauge\n",
		"twe_serve_conns{proto=\"v1\"} 2\n",
		"twe_serve_conns{proto=\"v2\"} 3\n",
		"twe_serve_effect_regs_total 17\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "twe_serve_effect_registrations_total") {
		t.Error("old twe_serve_effect_registrations_total name still present")
	}
}
