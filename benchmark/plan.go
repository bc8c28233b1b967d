package main

import (
	"math/rand"
)

// Store geometry of a default twe-serve (its -shards/-keys defaults).
// The plans below are built for it; the hello frame is checked against it.
const (
	storeShards = 8
	storeKeys   = 256
)

// numClients is the number of closed-loop clients; the host has two CPUs
// and the ISSUE fixes the client count to nproc.
const numClients = 2

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opAdd
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"put", "get", "add", "scan"}

// planOp is one generated request.
type planOp struct {
	kind opKind
	key  int
	val  int64
}

// mix is the traffic shape of one serve workload. Everything a request
// plan depends on is here or in the seed.
type mix struct {
	PutFrac   float64 `json:"put_frac"`   // share of non-scan ops that are puts
	AddFrac   float64 `json:"add_frac"`   // share of non-scan ops that are dyneff adds
	ScanEvery int     `json:"scan_every"` // every n-th op is a full scan; 0 = never
	// HotFrac of the non-scan ops go to the shard-0 keys both clients
	// share; the rest go to keys only this client touches.
	HotFrac float64 `json:"hot_frac"`
	// Ownership: "shard" gives client c the store shards ≡ c (mod 2), so
	// two clients never name the same Shard region; "slot" gives client c
	// the keys whose slot index is ≡ c (mod 2), which spreads each
	// client's keys over every store shard (and so over both cluster
	// members) while still keeping them disjoint.
	Ownership string `json:"ownership"`
}

// ownedKeys lists the keys only client c touches under m.
func (m mix) ownedKeys(c int) []int {
	var keys []int
	for k := 0; k < storeKeys; k++ {
		shard, slot := k%storeShards, k/storeShards
		switch m.Ownership {
		case "slot":
			if slot%numClients == c {
				keys = append(keys, k)
			}
		default:
			if shard%numClients == c && !(m.HotFrac > 0 && shard == 0) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// hotKeys lists the shard-0 keys every client shares when HotFrac > 0.
func hotKeys() []int {
	var keys []int
	for k := 0; k < storeKeys; k += storeShards {
		keys = append(keys, k)
	}
	return keys
}

// servePlan generates client c's request stream. It is a pure function
// of (seed, client, mix): the same three give the same stream, and the
// children only ever see the requests it generates.
type servePlan struct {
	m     mix
	c     int
	rng   *rand.Rand
	owned []int
	hot   []int
	n     int64 // ops generated so far
}

func newServePlan(seed int64, c int, m mix) *servePlan {
	return &servePlan{
		m: m, c: c,
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 1)),
		owned: m.ownedKeys(c),
		hot:   hotKeys(),
	}
}

// putVal makes every put value unique and self-describing: it names the
// writing client, the key and the client's op number. A get can then be
// checked without a shadow store: a value that does not decode to the
// key read was never written there by anyone.
func putVal(seq int64, key, client int) int64 {
	return seq<<9 | int64(key)<<1 | int64(client)
}

func decodeVal(v int64) (seq int64, key, client int) {
	return v >> 9, int(v>>1) & 0xff, int(v & 1)
}

func (p *servePlan) next() planOp {
	p.n++
	if p.m.ScanEvery > 0 && p.n%int64(p.m.ScanEvery) == 0 {
		return planOp{kind: opScan}
	}
	var key int
	if p.m.HotFrac > 0 && p.rng.Float64() < p.m.HotFrac {
		key = p.hot[p.rng.Intn(len(p.hot))]
	} else {
		key = p.owned[p.rng.Intn(len(p.owned))]
	}
	switch roll := p.rng.Float64(); {
	case roll < p.m.PutFrac:
		return planOp{kind: opPut, key: key, val: putVal(p.n, key, p.c)}
	case roll < p.m.PutFrac+p.m.AddFrac:
		return planOp{kind: opAdd, key: key, val: 1 + p.rng.Int63n(9)}
	default:
		return planOp{kind: opGet, key: key}
	}
}

// Shape of the runtime_finegrain task stream (Fig 6.3's reduction).
const (
	fgClusters    = 64  // writes Cluster:[k], k ~ Zipf over these
	fgZipfS       = 1.2 // Zipf exponent
	fgBatchEvery  = 16  // every n-th submission is a SubmitBatch ...
	fgBatchSize   = 16  // ... of this many disjoint writes Points:[i]
	fgPointBlocks = 8   // Points is split into this many 16-wide blocks
	fgScanEvery   = 256 // every n-th submission is a reads Cluster:*
	fgBodySpins   = 24  // xorshift rounds per body, ≈100 ns on this host
)

type fgKind uint8

const (
	fgWrite fgKind = iota // one writes Cluster:[k]
	fgBatch               // SubmitBatch of fgBatchSize writes Points:[block*16+j]
	fgRead                // one reads Cluster:*
)

// fgSub is one submission of the runtime_finegrain stream.
type fgSub struct {
	kind fgKind
	k    int   // cluster index (fgWrite) or point block (fgBatch)
	val  int64 // amount a write adds to its cell
}

// fgPlan generates submitter c's stream; like servePlan it is a pure
// function of (seed, submitter).
type fgPlan struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int64
}

func newFGPlan(seed int64, c int) *fgPlan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 2))
	return &fgPlan{rng: rng, zipf: rand.NewZipf(rng, fgZipfS, 1, fgClusters-1)}
}

func (p *fgPlan) next() fgSub {
	p.n++
	switch {
	case p.n%fgScanEvery == 0:
		return fgSub{kind: fgRead}
	case p.n%fgBatchEvery == 0:
		return fgSub{kind: fgBatch, k: p.rng.Intn(fgPointBlocks), val: 1 + p.rng.Int63n(9)}
	default:
		return fgSub{kind: fgWrite, k: int(p.zipf.Uint64()), val: 1 + p.rng.Int63n(9)}
	}
}
