package cluster

import (
	"math/bits"
	"sync/atomic"
)

// shardLat collects per-member request latencies router-side (forward →
// response matched) for the per-shard p50/p99 in /cluster and
// BENCH_cluster.json. It is a fixed log-bucketed histogram of atomic
// counters: observing takes no lock and allocates nothing, and its size
// (numLatBuckets counters, under 5 KiB) does not depend on how many
// requests the router forwarded, so the quantiles keep tracking the load
// however long the router runs.
//
// Bucket geometry: values below latSub are counted exactly; above that,
// every power-of-two range [2^e, 2^(e+1)) is split into latSub equal
// buckets, and Quantile reports a bucket's midpoint. A reported quantile
// is therefore within latRelErr (1/32) of the true sample it stands for,
// for latencies up to 2^latMaxExp ns (≈ 18 minutes); larger values are
// counted in the top bucket.
type shardLat struct {
	buckets [numLatBuckets]atomic.Uint64
}

const (
	latSubBits = 4
	latSub     = 1 << latSubBits // buckets per power of two
	latMaxExp  = 40              // values ≥ 2^latMaxExp share the top bucket

	numLatBuckets = (latMaxExp-latSubBits+1)*latSub + 1
	// latRelErr bounds |reported − true| / true for an in-range quantile.
	latRelErr = 1.0 / (2 * latSub)
)

// latBucket maps a latency to its bucket index.
func latBucket(ns int64) int {
	if ns < latSub {
		return int(max(ns, 0))
	}
	v := uint64(ns)
	e := bits.Len64(v) - 1 // v ∈ [2^e, 2^(e+1)), e ≥ latSubBits
	if e >= latMaxExp {
		return numLatBuckets - 1
	}
	sub := int(v>>(e-latSubBits)) & (latSub - 1)
	return (e-latSubBits+1)*latSub + sub
}

// latMid returns the representative value of bucket i: the value itself
// below latSub, else the bucket's midpoint.
func latMid(i int) int64 {
	if i < latSub {
		return int64(i)
	}
	if i == numLatBuckets-1 {
		return 1 << latMaxExp
	}
	e := i/latSub - 1 + latSubBits
	sub := i % latSub
	width := int64(1) << (e - latSubBits)
	lo := int64(1)<<e + int64(sub)*width
	return lo + width/2
}

func (l *shardLat) observe(ns int64) {
	l.buckets[latBucket(ns)].Add(1)
}

// Quantile returns the q-quantile of the observed latencies (0 when
// none): the representative value of the bucket holding the sample of
// rank ⌊q·(n−1)⌋. Concurrent observations may or may not be included.
func (l *shardLat) Quantile(q float64) int64 {
	var counts [numLatBuckets]uint64
	var n uint64
	for i := range l.buckets {
		counts[i] = l.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			return latMid(i)
		}
	}
	return latMid(numLatBuckets - 1)
}
