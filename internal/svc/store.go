package svc

import (
	"fmt"

	"twe/internal/dyneff"
	"twe/internal/effect"
	"twe/internal/rpl"
)

// store is the served state. Shard k's values live in region Shard:[k]
// and are touched only by task bodies holding an effect on that region —
// no locks, the scheduler serializes conflicting ops. Per-key
// accumulators for the commutative add op are dyneff Refs: adds declare
// only their session effect and acquire the key dynamically (§7), so
// concurrent adds to different keys never serialize on a static region.
type store struct {
	shards   [][]int64
	perShard int

	reg   *dyneff.Registry
	accum []*dyneff.Ref // one per key

	// Task names per shard, formatted once: they only feed trace events
	// and the task log, which match on them byte for byte.
	putNames, getNames []string
}

func newStore(shards, keys int) *store {
	st := &store{perShard: (keys + shards - 1) / shards, reg: dyneff.NewRegistry()}
	st.shards = make([][]int64, shards)
	st.putNames = make([]string, shards)
	st.getNames = make([]string, shards)
	for k := range st.shards {
		st.shards[k] = make([]int64, st.perShard)
		st.putNames[k] = fmt.Sprintf("put[s%d]", k)
		st.getNames[k] = fmt.Sprintf("get[s%d]", k)
	}
	st.accum = make([]*dyneff.Ref, keys)
	for i := range st.accum {
		st.accum[i] = dyneff.NewRef(st.reg, int64(0))
	}
	return st
}

func (st *store) slot(key int) (shard, slot int) {
	return key % len(st.shards), key / len(st.shards)
}

func shardRegion(k int) rpl.RPL { return rpl.New(rpl.N("Shard"), rpl.Idx(k)) }

func sessionRegion(sid int) rpl.RPL { return rpl.New(rpl.N("Session"), rpl.Idx(sid)) }

// Required (minimal) effects per op. The client may declare anything that
// covers these; the canonical client helpers below declare exactly these.
func putEffectSet(shard, sid int) effect.Set {
	return effect.NewSet(effect.WriteEff(shardRegion(shard)), effect.WriteEff(sessionRegion(sid)))
}

func getEffectSet(shard, sid int) effect.Set {
	return effect.NewSet(effect.Read(shardRegion(shard)), effect.WriteEff(sessionRegion(sid)))
}

// addEffectSet: adds only declare their session statically; the key
// accumulator is acquired through the dyneff registry at run time.
func addEffectSet(sid int) effect.Set {
	return effect.NewSet(effect.WriteEff(sessionRegion(sid)))
}

// scanEffectSet: reads every shard, writes the whole per-session subtree.
// The scan sums every shard in its own body and touches only Shard:*, but
// the subtree stays in the required set because clients and the router
// already declare it (it is the scan's wire effect and its prepared
// hold's); it still excludes every put and keeps the scan in session order.
func scanEffectSet(sid int) effect.Set {
	return effect.NewSet(
		effect.Read(rpl.New(rpl.N("Shard"), rpl.Any)),
		effect.WriteEff(sessionRegion(sid).Append(rpl.Any)))
}

// Wire-effect helpers: the canonical declared-effect strings clients put
// in Request.Eff. They are the String forms of the required sets, so they
// parse back to exactly what the server demands (satellite 1's round-trip
// property is what makes this safe).

// PutEffect is the declared effect for a put of key by session.
func PutEffect(shards, key, session int) string {
	return putEffectSet(key%shards, session).String()
}

// GetEffect is the declared effect for a get of key by session.
func GetEffect(shards, key, session int) string {
	return getEffectSet(key%shards, session).String()
}

// AddEffect is the declared effect for an accumulator add by session.
func AddEffect(session int) string {
	return addEffectSet(session).String()
}

// ScanEffect is the declared effect for a full scan by session.
func ScanEffect(session int) string {
	return scanEffectSet(session).String()
}
