// The effect interner (DESIGN.md §17): a per-runtime table assigning
// small integer ids to hot, fully specified RPL paths so that the
// steady-state Covers/Disjoint checks on the admission hot path become a
// single integer compare instead of structural recursion over elements.
//
// Interning is purely an acceleration: an RPL that was never interned (or
// that carries an id from a different interner instance) falls back to
// the structural algorithms, so mixing interned and plain RPLs is always
// sound. The svc EffectTable/EffectCache intern at registration time, so
// wire effRefs map straight to interned ids.
package effect

import (
	"sync"
	"sync/atomic"

	"twe/internal/rpl"
)

// DefaultInternerCap bounds an interner created with cap ≤ 0. The table
// is for *hot* paths; once full, Intern degrades to a no-op (structural
// compares still work), so a few thousand slots suffice.
const DefaultInternerCap = 4096

// instanceIDs hands out the per-process interner-instance tags packed
// into the top rpl.InternIDInstanceBits of every id. Instance 0 is
// reserved (id 0 means "not interned"). Tags are never reused, since an
// RPL stamped by a dead interner may still be compared; a process that
// builds more than 2^16-1 runtimes gets inert interners from then on.
var instanceIDs atomic.Uint32

// Interner assigns stable small-integer ids to fully specified RPLs.
// Lookups on the hot path are lock-free (an atomic pointer to an
// immutable map rebuilt copy-on-write under a mutex on insert); the
// intended usage is intern-once-at-registration, compare-forever.
type Interner struct {
	inst uint32 // instance tag, 0 when the tag space was exhausted
	max  int    // slot capacity

	m        atomic.Pointer[map[string]uint32] // RPL string → id, immutable
	mu       sync.Mutex                        // serializes inserts
	resident atomic.Int64                      // occupied slots
}

// NewInterner builds an interner with the given slot capacity (≤ 0 means
// DefaultInternerCap). If the process-wide instance-tag space is
// exhausted, the interner is inert: Intern returns its argument
// unchanged, which is always sound.
func NewInterner(capSlots int) *Interner {
	if capSlots <= 0 {
		capSlots = DefaultInternerCap
	}
	if max := 1<<rpl.InternIDSlotBits - 1; capSlots > max {
		capSlots = max
	}
	in := &Interner{max: capSlots}
	if inst := instanceIDs.Add(1); inst < 1<<rpl.InternIDInstanceBits {
		in.inst = inst
	}
	m := make(map[string]uint32)
	in.m.Store(&m)
	return in
}

// Intern returns r stamped with this interner's id for its region,
// assigning a fresh id on first sight. RPLs that are not fully specified,
// or that arrive after the table filled, are returned unchanged — the
// structural compare paths remain correct for them.
func (in *Interner) Intern(r rpl.RPL) rpl.RPL {
	if in == nil || in.inst == 0 || !r.FullySpecified() {
		return r
	}
	key := r.String()
	if id, ok := (*in.m.Load())[key]; ok {
		return r.WithInternID(id)
	}
	in.mu.Lock()
	old := *in.m.Load()
	if id, ok := old[key]; ok {
		in.mu.Unlock()
		return r.WithInternID(id)
	}
	if len(old) >= in.max {
		in.mu.Unlock()
		return r
	}
	id := in.inst<<rpl.InternIDSlotBits | uint32(len(old)+1)
	next := make(map[string]uint32, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = id
	in.m.Store(&next)
	in.resident.Add(1)
	in.mu.Unlock()
	return r.WithInternID(id)
}

// InternSet returns s with every fully specified region interned. The
// set's normal form is preserved (interning never changes region
// identity, only the comparison fast path).
func (in *Interner) InternSet(s Set) Set {
	if in == nil || in.inst == 0 || s.IsPure() {
		return s
	}
	effs := s.Effects()
	changed := false
	for i := range effs {
		r := in.Intern(effs[i].Region)
		if r.InternID() != effs[i].Region.InternID() {
			effs[i].Region = r
			changed = true
		}
	}
	if !changed {
		return s
	}
	return NewSet(effs...)
}

// Resident reports the number of occupied slots (the occupancy gauge).
func (in *Interner) Resident() int64 {
	if in == nil {
		return 0
	}
	return in.resident.Load()
}

// Cap reports the slot capacity.
func (in *Interner) Cap() int {
	if in == nil {
		return 0
	}
	return in.max
}
