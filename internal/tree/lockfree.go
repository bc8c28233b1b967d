// Lock-free admission fast path (DESIGN.md §17).
//
// A scheduler built with Options.LockFree admits a conflict-free submission
// of fully specified effects with ZERO lock acquisitions. The mechanism has
// three parts:
//
//  1. Epoch-snapshot publication sets. Every tree node carries an immutable
//     slice of fast-admitted effects (node.fast), replaced wholesale by CAS.
//     A fast-admitted effect lives in the fast set of its home node — the
//     node of its (fully specified) RPL — instead of the locked six-set
//     structure, until a locked operation that must order against it
//     captures it into the locked sets under the node lock.
//
//  2. A read-only descent. Fully specified RPLs make conflict detection
//     local: an effect can conflict only with tail-carrying effects at its
//     ancestors (watched by the per-node enabledTail counters), with locked
//     no-tail residents at its home (enabledNoTail), or with fast residents
//     at its home (checked at publish-CAS time — co-resident fast effects
//     necessarily name the identical region). Effects strictly below the
//     home have longer wildcard-free prefixes and are provably disjoint, as
//     are locked no-tail residents at proper ancestors.
//
//  3. A global slow-path guard. Every locked code path that can ENABLE an
//     effect brackets itself with slowEnter/slowExit, which maintain a
//     (inflight count, epoch) pair. The fast path reads the epoch before
//     its descent and validates after publication that no locked admission
//     work overlapped its window (inflight == 0 and epoch unchanged both
//     before and after). If validation fails the publication is retracted
//     onto the locked path; effects a concurrent locked checker already
//     captured keep their registered waiters across the retract, so no
//     wakeup is ever lost. Removals need no bracket: removing an effect
//     never creates a conflict the fast path could miss.
package tree

import (
	"runtime"

	"twe/internal/core"
)

// fastSet is an immutable snapshot of the fast-admitted effects resident at
// one node. Mutations copy and CAS node.fast; a loaded snapshot is never
// written to.
type fastSet []*effInst

// slowEnter opens a locked-admission section. The order — inflight up, then
// epoch bump — pairs with the fast path's validation read order (epoch
// before, inflight+epoch after) so any overlap is observable on at least
// one side. No-op for locked-only schedulers.
func (s *Scheduler) slowEnter() {
	if !s.lockFree {
		return
	}
	s.slowInflight.Add(1)
	s.slowEpoch.Add(1)
}

// slowExit closes a locked-admission section.
func (s *Scheduler) slowExit() {
	if !s.lockFree {
		return
	}
	s.slowInflight.Add(-1)
}

// fastPublish adds e to n's fast set by CAS, re-verifying on every retry
// that no conflicting fast effect became co-resident. Co-residents of one
// fast set necessarily carry the identical fully specified RPL, so the
// conflict test degenerates to "different task and at least one write"; the
// check is deliberately forgiveness-free — a real blocked-on relation just
// sends the submission to the locked path, which applies the full predicate.
func (n *node) fastPublish(e *effInst) bool {
	for {
		old := n.fast.Load()
		var cur fastSet
		if old != nil {
			cur = *old
		}
		for _, ep := range cur {
			if ep.fut != e.fut && (ep.write || e.write) {
				return false
			}
		}
		nw := make(fastSet, len(cur)+1)
		copy(nw, cur)
		nw[len(cur)] = e
		if n.fast.CompareAndSwap(old, &nw) {
			return true
		}
	}
}

// fastDrop removes e from n's fast set by CAS. It returns false iff e is
// not present — either it was never fast-published here, or a locked
// checker captured it into the locked sets first. Whoever wins the removal
// CAS owns the effect's subsequent placement.
func (n *node) fastDrop(e *effInst) bool {
	for {
		old := n.fast.Load()
		if old == nil {
			return false
		}
		idx := -1
		for i, ep := range *old {
			if ep == e {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false
		}
		nw := make(fastSet, 0, len(*old)-1)
		nw = append(nw, (*old)[:idx]...)
		nw = append(nw, (*old)[idx+1:]...)
		if n.fast.CompareAndSwap(old, &nw) {
			return true
		}
	}
}

// captureConflictingFast moves every fast-set resident of n that conflicts
// with e into n's locked sets, where the caller's normal scan will find it.
// The caller holds n's lock; winning the removal CAS against a concurrent
// Done/retract transfers ownership, so the locked add is safe. Residents
// whose conflict is forgiven (blocked-on, per Fig. 5.8) are left fast.
func (s *Scheduler) captureConflictingFast(n *node, e *effInst) {
	for {
		old := n.fast.Load()
		if old == nil || len(*old) == 0 {
			return
		}
		var victim *effInst
		for _, ep := range *old {
			if s.conflicts(ep, e) {
				victim = ep
				break
			}
		}
		if victim == nil {
			return
		}
		if n.fastDrop(victim) {
			// Ours now: file it as an enabled no-tail resident. Its task's
			// disabled counter is already 0, so tryDisable will refuse it and
			// conflicting admissions will wait, exactly as for any enabled
			// locked effect.
			n.add(victim)
		}
		// Either way the snapshot changed (or the victim vanished to a
		// concurrent removal); rescan for further conflicting residents.
	}
}

// tryFastSubmit is the §17 zero-lock admission attempt for an effectful
// future. It returns true when the submission was fully handled: either
// admitted with no lock acquisitions, or published, invalidated, and
// retracted onto the locked path internally (reusing the same effect
// instances, so waiters a concurrent checker registered survive). It
// returns false when nothing was published and the caller should run the
// normal locked path. ready, when non-nil, is the batch enable sink.
func (s *Scheduler) tryFastSubmit(f *core.Future, st *futState, ready *[]*core.Future) bool {
	for _, e := range st.effs {
		if e.r.Len() == 0 || !e.r.FullySpecified() {
			return false // wildcard or root effects follow the locked rules
		}
	}
	if f.Status() == core.Prioritized {
		return false // the execute optimization (§5.5.1) is a locked protocol
	}

	e0 := s.slowEpoch.Load()
	if s.slowInflight.Load() != 0 {
		return false // locked admission work in flight
	}

	// Read-only descent: walk each effect to its home node, watching the
	// enabled-tail counters on the way down and the locked no-tail count at
	// the home. Intermediate no-tail residents are proper prefixes of e's
	// region with a concrete remainder, hence disjoint; anything below the
	// home has a longer wildcard-free prefix, likewise disjoint.
	if s.root.enabledTail.Load() != 0 {
		return false
	}
	homes := make([]*node, len(st.effs))
	for i, e := range st.effs {
		n := s.root
		for d := 0; d < e.r.Len(); d++ {
			n = n.getOrCreateChild(e.r.Elem(d))
			s.visitNode()
			if n.enabledTail.Load() != 0 {
				return false
			}
		}
		if n.enabledNoTail.Load() != 0 {
			return false
		}
		homes[i] = n
	}

	// Commit point: claim the disabled counter. A CAS (not a store) so a
	// concurrent recheck holding the recheckOffset flag sends us to the
	// locked path instead of being clobbered.
	if !st.disabled.CompareAndSwap(int64(len(st.effs)), 0) {
		return false
	}

	// Publish. Order per effect: enabled flag and setIdx sentinel first,
	// then the node pointer, then the CAS that makes the effect reachable —
	// the CAS edge publishes the plain fields to any goroutine that finds
	// the effect through the fast set.
	published := 0
	ok := true
	for i, e := range st.effs {
		e.enabled = true
		e.setIdx = -1 // sentinel: in a fast set, not a locked set
		e.node.Store(homes[i])
		if !homes[i].fastPublish(e) {
			// A conflicting fast effect co-resides at the home. Nothing of e
			// escaped (the CAS failed), so unwind its fields.
			e.enabled = false
			e.setIdx = 0
			e.node.Store(nil)
			ok = false
			break
		}
		published++
	}

	if ok {
		// Validate the window: no locked admission section may have been
		// open at any point between the epoch read and now.
		if s.slowInflight.Load() != 0 || s.slowEpoch.Load() != e0 {
			ok = false
		}
	}

	if ok {
		s.enabledCount.Add(1)
		st.lfState.Store(lfFast)
		s.noteAdmit(true, 1)
		if ready != nil {
			*ready = append(*ready, f)
		} else {
			f.Ready()
		}
		return true
	}

	if published == 0 {
		// Nothing became visible; restore the counter (Add, not Store, to
		// preserve a concurrent recheckOffset) and let the caller run the
		// ordinary locked path.
		st.disabled.Add(int64(len(st.effs)))
		return false
	}
	s.retractToSlow(f, st, published, ready)
	return true
}

// retractToSlow unwinds a partially or fully published fast admission whose
// validation failed, then re-admits the future through the locked path. The
// same effInst objects are reused: a concurrent locked checker may already
// have captured one of them and registered waiters on it, and those waiter
// registrations must survive into the locked placement (they drain at the
// task's eventual Done, the paper's normal waiter lifecycle).
//
// An unwound effect's node is reset to nil, the "registered but not yet
// placed" state. The future joins the waiting set before the locked
// insert places its effects; the liveness net skips it in that window
// (stalledOldest), and the net runs again once the insert is done: here,
// or for a batch in submitBatchLockFree's coalesced pass.
// With a stale node pointer a recheck in the window would enable an
// effect that sits in no set, and the insert would then file it a second
// time, where it outlives its task.
func (s *Scheduler) retractToSlow(f *core.Future, st *futState, published int, ready *[]*core.Future) {
	for _, e := range st.effs[:published] {
		n := e.node.Load()
		if n.fastDrop(e) {
			// Still fast, never captured: unreachable through the tree now.
			e.enabled = false
			e.setIdx = 0
			e.node.Store(nil)
			continue
		}
		// A locked checker captured it into the locked sets (and may have
		// attached waiters). Pull it back out under the node lock; keep the
		// waiters on the instance.
		nc := s.lockContainingNode(e)
		nc.remove(e)
		e.enabled = false
		e.setIdx = 0
		e.node.Store(nil)
		nc.unlock()
	}
	for _, e := range st.effs[published:] {
		e.setIdx = 0
	}
	// Re-arm the disabled counter before the effects become reachable again.
	st.disabled.Add(int64(len(st.effs)))

	s.liveMu.Lock()
	s.waiting[f] = struct{}{}
	s.noteDepthLocked()
	s.liveMu.Unlock()
	st.lfState.Store(lfSlow)

	s.noteAdmit(false, 1)
	s.slowEnter()
	if s.root.rw != nil && s.tryFastInsert(st.effs, false, ready) {
		s.fastInserts.Add(1)
	} else {
		s.slowInserts.Add(1)
		s.root.lock()
		s.insert(s.root, st.effs, 0, false, ready)
	}
	s.slowExit()
	if ready == nil {
		s.ensureLiveness()
	}
}

// removeEffect takes e out of the scheduler — fast set or locked set,
// wherever it currently lives — and hands over the waiters registered on it
// (taken inside the same critical section as the removal; the caller owns
// the slice).
// Winning the fast-set CAS implies no waiters exist: waiter registration on
// a fast effect requires capturing it into the locked sets first.
func (s *Scheduler) removeEffect(e *effInst) []*effInst {
	for {
		n := e.node.Load()
		if n == nil {
			// Concurrent Submit registered the effect but has not placed it
			// yet (Fig. 5.13's nil retry).
			runtime.Gosched()
			continue
		}
		if s.lockFree && n.fastDrop(e) {
			return nil
		}
		n.lock()
		if e.node.Load() != n {
			n.unlock()
			continue
		}
		if s.lockFree && e.setIdx < 0 {
			// Mid-transition: published to a fast set we lost the drop race
			// on, or being retracted. Whoever owns it will settle setIdx.
			n.unlock()
			runtime.Gosched()
			continue
		}
		n.remove(e)
		ws := e.waiters
		e.waiters = nil
		n.unlock()
		return ws
	}
}

// submitBatchLockFree is SubmitBatch for the lock-free scheduler: strict
// per-member admission in Seq order. Each member is checked against
// everything already admitted — including earlier members of this batch —
// which is literally the one-by-one-in-Seq-order isolation semantics the
// core.BatchScheduler contract requires, while conflict-free members still
// take the zero-lock path. Enables are coalesced into one core.ReadyBatch
// flush and the liveness net runs once, in its coalesced form.
func (s *Scheduler) submitBatchLockFree(fs []*core.Future) {
	ready := make([]*core.Future, 0, len(fs))
	for _, f := range fs {
		st := newState(f)
		if len(st.effs) == 0 {
			st.lfState.Store(lfFast)
			s.enabledCount.Add(1)
			ready = append(ready, f)
			continue
		}
		if s.tryFastSubmit(f, st, &ready) {
			continue
		}
		s.liveMu.Lock()
		s.waiting[f] = struct{}{}
		s.noteDepthLocked()
		s.liveMu.Unlock()
		st.lfState.Store(lfSlow)

		s.noteAdmit(false, 1)
		s.slowEnter()
		if s.root.rw != nil && s.tryFastInsert(st.effs, false, &ready) {
			s.fastInserts.Add(1)
		} else {
			s.slowInserts.Add(1)
			s.root.lock()
			s.insert(s.root, st.effs, 0, false, &ready)
		}
		s.slowExit()
	}
	core.ReadyBatch(ready)
	s.ensureLivenessCoalesced()
}
