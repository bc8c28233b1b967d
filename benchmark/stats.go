package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"
)

// windowWidth is the width of one latency window. Percentiles are taken
// per window and the median across windows is reported, so one stalled
// second moves one window's percentile, not the run's.
const windowWidth = time.Second

// windowCap bounds the latency samples one client keeps per window. A
// window that sees more ops keeps a uniform random sample of them
// (reservoir sampling), so the recorder's memory is fixed up front and
// does not grow with throughput — which matters on runtime_finegrain,
// where the recorder lives inside the measured process.
const windowCap = 1 << 14

// window is one client's latency samples for one windowWidth of a phase.
type window struct {
	seen    int // ops observed; len(samples) == min(seen, windowCap)
	samples []uint32
}

// recorder collects one client's op latencies for one phase, bucketed by
// completion time. It is owned by the client's goroutine. A phase is
// recorded in one slice or, when it is interleaved with another phase,
// in several: begin says which windows the coming slice fills.
type recorder struct {
	start    time.Time // when the current slice began
	first, n int       // the current slice fills wins[first : first+n]
	wins     []window
	rng      *rand.Rand
}

// newRecorder pre-allocates and pre-touches every window of the phase, so
// recording allocates nothing and the measured process's heap does not
// grow while it is timed.
func newRecorder(windows int, seed int64) *recorder {
	n := max(windows, 1)
	r := &recorder{n: n, wins: make([]window, n), rng: rand.New(rand.NewSource(seed))}
	backing := make([]uint32, n*windowCap)
	for i := range backing {
		backing[i] = 0 // touch: the pages are resident before timing starts
	}
	for i := range r.wins {
		r.wins[i].samples = backing[i*windowCap : i*windowCap : (i+1)*windowCap]
	}
	return r
}

// newRecorders makes one recorder per client.
func newRecorders(clients, windows int, seed int64) []*recorder {
	recs := make([]*recorder, clients)
	for i := range recs {
		recs[i] = newRecorder(windows, seed+int64(i))
	}
	return recs
}

// windowsIn is how many whole windows a phase of length d fills.
func windowsIn(d time.Duration) int { return max(int(d/windowWidth), 1) }

// begin opens a slice that starts at start and fills the n windows from
// first on.
func (r *recorder) begin(start time.Time, first, n int) {
	r.start, r.first, r.n = start, first, min(n, len(r.wins)-first)
}

// add records one op that completed at `at` with latency lat. Ops that
// complete after the slice's last full window are dropped: it is over.
func (r *recorder) add(at time.Time, lat time.Duration) {
	d := at.Sub(r.start)
	i := int(d / windowWidth)
	if d < 0 || i >= r.n {
		return
	}
	if lat < 0 {
		lat = 0
	}
	ns := uint32(math.MaxUint32)
	if lat < time.Duration(math.MaxUint32) {
		ns = uint32(lat)
	}
	w := &r.wins[r.first+i]
	w.seen++
	if len(w.samples) < windowCap {
		w.samples = append(w.samples, ns)
	} else if j := r.rng.Intn(w.seen); j < windowCap {
		w.samples[j] = ns
	}
}

// phaseStats is the digest of one phase over all clients.
type phaseStats struct {
	Windows   int     // full windows measured
	Ops       int     // ops completed inside those windows
	OpsPerSec float64 // median over windows of ops completed per second
	MeanRate  float64 // Ops / measured seconds
	P50US     float64 // median over windows of the window's p50
	P99US     float64 // median over windows of the window's p99
	MeanUS    float64 // mean latency over all kept samples
	// TopPct is the highest percentile that still has at least ten
	// samples beyond it in the median window, and TopUS its value.
	TopPct float64
	TopUS  float64
	// The per-window values the medians above were taken over.
	WinRates, WinP50US, WinP99US []float64
}

// digest merges the clients' recorders window by window.
func digest(recs []*recorder) phaseStats {
	var ps phaseStats
	if len(recs) == 0 {
		return ps
	}
	n := len(recs[0].wins)
	var rates, p50s, p99s, tops []float64
	var sum float64
	var kept int
	perWin := make([]int, 0, n)
	for i := 0; i < n; i++ {
		var merged []uint32
		seen := 0
		for _, r := range recs {
			merged = append(merged, r.wins[i].samples...)
			seen += r.wins[i].seen
		}
		ps.Ops += seen
		rates = append(rates, float64(seen)/windowWidth.Seconds())
		if len(merged) == 0 {
			continue
		}
		slices.Sort(merged)
		for _, v := range merged {
			sum += float64(v)
		}
		kept += len(merged)
		perWin = append(perWin, len(merged))
		p50s = append(p50s, percentile(merged, 0.50)/1e3)
		p99s = append(p99s, percentile(merged, 0.99)/1e3)
		tops = append(tops, percentile(merged, topPercentile(len(merged)))/1e3)
	}
	ps.Windows = n
	ps.WinRates, ps.WinP50US, ps.WinP99US = rates, p50s, p99s
	ps.OpsPerSec = median(rates)
	ps.MeanRate = float64(ps.Ops) / (float64(n) * windowWidth.Seconds())
	ps.P50US, ps.P99US = median(p50s), median(p99s)
	if kept > 0 {
		ps.MeanUS = sum / float64(kept) / 1e3
		sort.Ints(perWin)
		ps.TopPct = topPercentile(perWin[len(perWin)/2])
		ps.TopUS = median(tops)
	}
	return ps
}

// percentile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// topPercentile is the highest quantile of n samples that still has at
// least ten samples beyond it (0.5 when n is too small for any tail).
func topPercentile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// pctLabel renders a quantile as "p99.93": three decimals at most.
func pctLabel(q float64) string {
	return "p" + strconv.FormatFloat(math.Round(q*1e5)/1e3, 'f', -1, 64)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// which is what the benchmark contract's spread is defined on.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
