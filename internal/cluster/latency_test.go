package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestShardLatQuantileError: on a known distribution (log-uniform over
// 100 ns … 100 ms, the span a forward can take) every reported quantile
// is within the stated relative error of the exact sample quantile.
func TestShardLatQuantileError(t *testing.T) {
	var l shardLat
	rng := rand.New(rand.NewSource(1))
	samples := make([]int64, 200000)
	for i := range samples {
		samples[i] = int64(math.Exp(math.Log(100) + rng.Float64()*(math.Log(1e8)-math.Log(100))))
		l.observe(samples[i])
	}
	slices.Sort(samples)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := samples[int(q*float64(len(samples)-1))]
		got := l.Quantile(q)
		if rel := math.Abs(float64(got-want)) / float64(want); rel > latRelErr {
			t.Errorf("q=%v: got %d, exact %d, relative error %.4f > %.4f", q, got, want, rel, latRelErr)
		}
	}
	if l.Quantile(0.5) == 0 {
		t.Fatal("quantile of a non-empty histogram is 0")
	}
	var empty shardLat
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %d, want 0", got)
	}
}

// TestShardLatBucketsExact: small values are exact, bucket midpoints map
// back to their own bucket, and out-of-range values land in the top one.
func TestShardLatBucketsExact(t *testing.T) {
	for v := int64(-3); v < latSub; v++ {
		if got := latMid(latBucket(v)); got != max(v, 0) {
			t.Fatalf("value %d reported as %d", v, got)
		}
	}
	for i := 0; i < numLatBuckets; i++ {
		if got := latBucket(latMid(i)); got != i {
			t.Fatalf("midpoint of bucket %d maps to bucket %d", i, got)
		}
	}
	if got := latBucket(math.MaxInt64); got != numLatBuckets-1 {
		t.Fatalf("MaxInt64 in bucket %d, want the top bucket", got)
	}
}

// TestShardLatBoundedMemory: the histogram is a fixed array — observing
// allocates nothing, its size does not depend on the observation count,
// and quantiles keep moving after far more observations than the old
// sample buffer (2^20) held.
func TestShardLatBoundedMemory(t *testing.T) {
	if sz := unsafe.Sizeof(shardLat{}); sz > 8<<10 {
		t.Fatalf("shardLat is %d bytes, want a few KiB", sz)
	}
	var l shardLat
	if a := testing.AllocsPerRun(1000, func() { l.observe(12345) }); a != 0 {
		t.Fatalf("observe allocates %.1f times", a)
	}
	for i := 0; i < 1<<20; i++ {
		l.observe(1000)
	}
	for i := 0; i < 3<<20; i++ {
		l.observe(1e6)
	}
	if p50 := l.Quantile(0.5); math.Abs(float64(p50)-1e6)/1e6 > latRelErr {
		t.Fatalf("p50 = %d after the load shifted to 1ms, want ≈ 1e6", p50)
	}
}
