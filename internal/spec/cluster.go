// The cluster admission model (DESIGN.md §16): an explicit-state
// rendering of the cross-shard two-phase lane — coordinator rounds
// acquiring prepared holds member by member (in ascending order, or in
// any order with ParallelLegs), commits running leg bodies
// and releasing per member, aborts releasing everything — interleaved
// with ordinary single-member traffic, optionally issued by client
// sessions in program order. The same BFS machinery as the single-node
// model (explore.go), with its own state packing and invariant catalog:
//
//	C1 member isolation     — no two conflicting holds coexist on a member
//	C2 all-or-nothing       — an aborted round ran no leg; a finished
//	                          round ran every leg
//	C3 serializability      — two conflicting rounds never cross (i
//	                          before j on one member, j before i on
//	                          another)
//	C4 release on terminal  — terminal ops hold nothing
//	C5 session order        — on each member, a session's ops run in
//	                          program order
//	deadlock                — a non-terminal op with no enabled action
//
// Sessions model the router's two-phase lane, where a round's legs ride
// the client session's own member connections: a session sends its ops
// in program order without waiting for an open round, and each member
// admits a session's ops in the order they arrive, so a later op queues
// behind an earlier one's hold there (they conflict on the session's
// region). The coordinator mutex then covers only a round's prepare
// phase (PrepareMutex).
//
// The model covers the admission protocol, not crash faults: commits
// are infallible (the implementation reports a member lost mid-commit
// as an error to the client; the held legs still release via the
// member-side reaper, which the single-node model owns).
package spec

import (
	"fmt"
	"sort"
	"time"
)

// maxClusterOps and maxClusterMembers bound a configuration; cstate
// packs one uint16 per op.
const (
	maxClusterOps     = 6
	maxClusterMembers = 4
)

// ClusterOp is one operation of a cluster model configuration: a
// coordinator round over the members it touches (a single-member op is
// a round with one leg that skips the coordinator mutex — ordinary
// shard traffic).
type ClusterOp struct {
	// Name labels the op in counterexamples ("O0" etc. when empty).
	Name string
	// Touch lists the members the op reaches (deduplicated, any order).
	Touch []int
	// Res is the abstract resource the op uses on each touched member
	// (parallel to Touch). Two ops conflict on a member when both touch
	// it and their resources are equal or either is ResAll.
	Res []int
	// Session, when nonzero, names the client session issuing the op.
	// A session's ops appear in Ops in program order; they start in that
	// order, conflict on every member they share (the session's own
	// region), and each member admits them in that order.
	Session int
}

// ResAll is the whole-member resource (a scan's per-member footprint):
// it conflicts with everything on that member.
const ResAll = -1

// ClusterMutations deliberately breaks one clause of the cross-shard
// protocol so ClusterExplore can demonstrate the invariant catalog
// catches it.
type ClusterMutations struct {
	// ConcurrentRounds removes the coordinator mutex: several multi-leg
	// rounds may hold prepares at once. With ascending acquisition this
	// alone is SAFE — the order is deadlock-free and hold-all-before-run
	// keeps rounds serializable — which is exactly what exploring it
	// proves. With ParallelLegs it deadlocks: the mutex is then the
	// deadlock-freedom argument.
	ConcurrentRounds bool
	// UnorderedPrepare additionally lets odd-indexed ops acquire their
	// legs in descending member order (implies ConcurrentRounds). Caught
	// as a deadlock (the classic lock-ordering cycle) in an abort-free
	// world; with AllowAbort the hold-expiry escape restores liveness —
	// the model twin of the implementation's PrepareHold bound.
	UnorderedPrepare bool
	// EarlyCommit lets a round run and release a leg as soon as that leg
	// is prepared, before the remaining legs hold. Caught by C2 (a later
	// abort leaves the round half-applied) and, with ConcurrentRounds,
	// by C3 (two rounds cross).
	EarlyCommit bool
	// LeakOnAbort aborts without releasing already-acquired holds.
	// Caught by C4 and, transitively, as a deadlock.
	LeakOnAbort bool
	// PrepareOnForeignSession sends a session's round legs on
	// connections other than the session's own, such as the serial
	// lane's coordinator connections: a member then neither admits the
	// legs in the session's order nor sees them conflict on its region,
	// so a later op can overtake the round, or the round an earlier op.
	// Caught by C5.
	PrepareOnForeignSession bool
	// CommitBeforeAllAcked lets the first prepare ack commit the round
	// and release the coordinator mutex: every leg then runs as soon as
	// it holds. Caught by C2 (a later refusal leaves the round
	// half-applied) or C3 (a round admitted early crosses it).
	CommitBeforeAllAcked bool
}

// ClusterConfig is one closed world ClusterExplore enumerates.
type ClusterConfig struct {
	Name    string
	Members int
	Ops     []ClusterOp
	// AllowAbort adds abort actions for rounds that have not committed
	// anything yet (modeling prepare-hold expiry, client cancellation,
	// and coordinator failure before the commit point).
	AllowAbort bool
	// ParallelLegs lets a round acquire its legs in any order, as the
	// implementation's rounds do: they send every prepare at once, so
	// the holds land in whatever order the members admit them.
	ParallelLegs bool
	// PrepareMutex narrows the coordinator mutex to a round's prepare
	// phase: it is released once every leg holds, and the next round may
	// prepare while this one commits.
	PrepareMutex bool
	Mutations    ClusterMutations
}

// Validate rejects configurations the checker cannot represent.
func (c *ClusterConfig) Validate() error {
	if c.Members <= 0 || c.Members > maxClusterMembers {
		return fmt.Errorf("spec: cluster config %q has %d members; want 1..%d", c.Name, c.Members, maxClusterMembers)
	}
	if len(c.Ops) == 0 {
		return fmt.Errorf("spec: cluster config %q has no ops", c.Name)
	}
	if len(c.Ops) > maxClusterOps {
		return fmt.Errorf("spec: cluster config %q has %d ops; max %d", c.Name, len(c.Ops), maxClusterOps)
	}
	for i, op := range c.Ops {
		if len(op.Touch) == 0 {
			return fmt.Errorf("spec: op %d touches no members", i)
		}
		if len(op.Res) != len(op.Touch) {
			return fmt.Errorf("spec: op %d has %d resources for %d members", i, len(op.Res), len(op.Touch))
		}
		if op.Session < 0 {
			return fmt.Errorf("spec: op %d has negative session %d", i, op.Session)
		}
		seen := map[int]bool{}
		for _, m := range op.Touch {
			if m < 0 || m >= c.Members {
				return fmt.Errorf("spec: op %d touches out-of-range member %d", i, m)
			}
			if seen[m] {
				return fmt.Errorf("spec: op %d touches member %d twice", i, m)
			}
			seen[m] = true
		}
	}
	return nil
}

func (c *ClusterConfig) opName(i int) string {
	if n := c.Ops[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("O%d", i)
}

// cluster op phases.
const (
	cUnsub   uint16 = iota // not yet started
	cRound                 // round in progress (preparing and committing)
	cDone                  // every leg ran
	cAborted               // aborted; no leg may have run (C2)
)

// cstate packs the model state: one uint16 per op — bits 0-1 phase,
// bits 2-4 prepare pointer (legs acquired so far, in the op's leg
// order), bits 5-8 hold mask (members currently held), bits 9-12 ran
// mask (members whose leg body ran) — plus one order word recording,
// per ordered op pair, "i ran before j on some member" (the C3
// crossing detector). Comparable, so it keys the visited set directly.
type cstate struct {
	ops   [maxClusterOps]uint16
	order uint64 // bit i*maxClusterOps+j: op i ran before op j on some member
}

func (s *cstate) phase(i int) uint16       { return s.ops[i] & 0x3 }
func (s *cstate) prep(i int) int           { return int((s.ops[i] >> 2) & 0x7) }
func (s *cstate) hold(i int) uint16        { return (s.ops[i] >> 5) & 0xF }
func (s *cstate) ran(i int) uint16         { return (s.ops[i] >> 9) & 0xF }
func (s *cstate) setPhase(i int, p uint16) { s.ops[i] = s.ops[i]&^0x3 | p }
func (s *cstate) setPrep(i, v int)         { s.ops[i] = s.ops[i]&^(0x7<<2) | uint16(v)<<2 }
func (s *cstate) setHold(i int, m uint16)  { s.ops[i] = s.ops[i]&^(0xF<<5) | m<<5 }
func (s *cstate) setRan(i int, m uint16)   { s.ops[i] = s.ops[i]&^(0xF<<9) | m<<9 }

func orderBit(i, j int) uint64 { return 1 << uint(i*maxClusterOps+j) }

// ccompiled precomputes leg orders and the per-member conflict matrix.
type ccompiled struct {
	cfg      *ClusterConfig
	n        int
	legs     [][]int    // op → members in acquisition order
	touch    []uint16   // op → touched-member mask
	conflict [][]uint16 // conflict[i][j]: mask of members where i and j interfere
	// shared[i][j]: members both ops touch when they belong to one
	// session (0 otherwise). Their relative order there is recorded
	// whether or not they conflict, so C5 sees every overtaking.
	shared [][]uint16
	// ordered[i][j]: members where j, earlier in i's session, must have
	// resolved before i may hold (the member admits the session's ops
	// in arrival order).
	ordered [][]uint16
}

func compileCluster(cfg *ClusterConfig) (*ccompiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Ops)
	cc := &ccompiled{cfg: cfg, n: n,
		legs: make([][]int, n), touch: make([]uint16, n), conflict: make([][]uint16, n),
		shared: make([][]uint16, n), ordered: make([][]uint16, n)}
	res := make([]map[int]int, n) // op → member → resource
	for i, op := range cfg.Ops {
		legs := append([]int(nil), op.Touch...)
		sort.Ints(legs)
		if cfg.Mutations.UnorderedPrepare && i%2 == 1 {
			for a, b := 0, len(legs)-1; a < b; a, b = a+1, b-1 {
				legs[a], legs[b] = legs[b], legs[a]
			}
		}
		cc.legs[i] = legs
		res[i] = map[int]int{}
		for k, m := range op.Touch {
			cc.touch[i] |= 1 << uint(m)
			res[i][m] = op.Res[k]
		}
	}
	for i := 0; i < n; i++ {
		cc.conflict[i] = make([]uint16, n)
		cc.shared[i] = make([]uint16, n)
		cc.ordered[i] = make([]uint16, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for m, ri := range res[i] {
				if rj, ok := res[j][m]; ok && (ri == ResAll || rj == ResAll || ri == rj) {
					cc.conflict[i][j] |= 1 << uint(m)
				}
			}
			if si := cfg.Ops[i].Session; si == 0 || si != cfg.Ops[j].Session {
				continue
			}
			both := cc.touch[i] & cc.touch[j]
			cc.shared[i][j] = both
			if cfg.Mutations.PrepareOnForeignSession && (len(cc.legs[i]) > 1 || len(cc.legs[j]) > 1) {
				continue // a foreign connection: neither ordered nor conflicting
			}
			cc.conflict[i][j] |= both
			if j < i {
				cc.ordered[i][j] = both
			}
		}
	}
	return cc, nil
}

// multiLeg reports whether op i is a coordinator round (vs plain
// single-member traffic).
func (cc *ccompiled) multiLeg(i int) bool { return len(cc.legs[i]) > 1 }

// roundsSerialized reports whether the coordinator mutex is in force.
func (cc *ccompiled) roundsSerialized() bool {
	m := cc.cfg.Mutations
	return !m.ConcurrentRounds && !m.UnorderedPrepare
}

// earlyCommit reports whether a round may run a leg before every leg
// holds.
func (cc *ccompiled) earlyCommit() bool {
	m := cc.cfg.Mutations
	return m.EarlyCommit || m.CommitBeforeAllAcked
}

// holdsMutex reports whether round i, in its round phase, holds the
// coordinator mutex: for its whole run, or with PrepareMutex until every
// leg holds (until the first does, under CommitBeforeAllAcked).
func (cc *ccompiled) holdsMutex(s cstate, i int) bool {
	if !cc.cfg.PrepareMutex {
		return true
	}
	need := len(cc.legs[i])
	if cc.cfg.Mutations.CommitBeforeAllAcked {
		need = 1
	}
	return s.prep(i) < need
}

// inOrder reports whether every op earlier in i's session that shares a
// member in mask with it has resolved there: ran, or aborted.
func (cc *ccompiled) inOrder(s cstate, i int, mask uint16) bool {
	for j := 0; j < i; j++ {
		if o := cc.ordered[i][j] & mask; o != 0 && s.phase(j) != cAborted && s.ran(j)&o != o {
			return false
		}
	}
	return true
}

type csuccEdge struct {
	step Step
	next cstate
}

// successors enumerates every enabled action of every op.
func (cc *ccompiled) successors(s cstate) []csuccEdge {
	var out []csuccEdge
	mut := cc.cfg.Mutations

	roundActive := false
	for i := 0; i < cc.n; i++ {
		if cc.multiLeg(i) && s.phase(i) == cRound && cc.holdsMutex(s, i) {
			roundActive = true
		}
	}

	for i := 0; i < cc.n; i++ {
		legs := cc.legs[i]
		switch s.phase(i) {
		case cUnsub:
			if cc.multiLeg(i) && roundActive && cc.roundsSerialized() {
				continue // coordinator mutex: one round at a time
			}
			if !cc.sessionStarted(s, i) {
				continue // a session sends its ops in program order
			}
			ns := s
			ns.setPhase(i, cRound)
			out = append(out, csuccEdge{Step{"start", i}, ns})

		case cRound:
			// Prepare the next leg — or, with ParallelLegs, any leg not
			// yet acquired — if its member admits the hold.
			if p := s.prep(i); p < len(legs) {
				next := legs[p : p+1]
				if cc.cfg.ParallelLegs {
					next = legs
				}
				for _, m := range next {
					bit := uint16(1) << uint(m)
					if (s.hold(i)|s.ran(i))&bit != 0 {
						continue // acquired already
					}
					free := cc.inOrder(s, i, bit)
					for j := 0; j < cc.n && free; j++ {
						if j != i && s.hold(j)&cc.conflict[i][j]&bit != 0 {
							free = false
						}
					}
					if free {
						ns := s
						ns.setPrep(i, p+1)
						ns.setHold(i, s.hold(i)|bit)
						out = append(out, csuccEdge{Step{"prepare", i}, ns})
					}
				}
			}
			// Commit legs: each runs the leg body, records ordering against
			// every op that already ran on that member, and releases the
			// leg's hold. Unmutated, commits start only once every leg
			// holds (the atomicity linchpin) and proceed in leg order;
			// EarlyCommit lets any held leg run immediately.
			commitable := s.prep(i) == len(legs)
			for k, m := range legs {
				bit := uint16(1) << uint(m)
				if s.hold(i)&bit == 0 || s.ran(i)&bit != 0 {
					continue
				}
				if !commitable && !cc.earlyCommit() {
					continue
				}
				if !cc.earlyCommit() && k > 0 {
					prev := uint16(1) << uint(legs[k-1])
					if s.ran(i)&prev == 0 {
						continue // fixed commit order keeps the space small
					}
				}
				ns := s
				ns.setHold(i, s.hold(i)&^bit)
				ns.setRan(i, s.ran(i)|bit)
				for j := 0; j < cc.n; j++ {
					if j != i && s.ran(j)&bit != 0 && (cc.conflict[i][j]|cc.shared[i][j])&bit != 0 {
						ns.order |= orderBit(j, i)
					}
				}
				if ns.ran(i) == cc.touch[i] {
					ns.setPhase(i, cDone)
				}
				out = append(out, csuccEdge{Step{"commit", i}, ns})
			}
			// Abort: hold expiry / cancellation before the commit point.
			if cc.cfg.AllowAbort && (s.ran(i) == 0 || cc.earlyCommit()) {
				ns := s
				ns.setPhase(i, cAborted)
				if !mut.LeakOnAbort {
					ns.setHold(i, 0)
				}
				out = append(out, csuccEdge{Step{"abort", i}, ns})
			}
		}
	}
	return out
}

// sessionStarted reports whether every op earlier in i's session has
// started.
func (cc *ccompiled) sessionStarted(s cstate, i int) bool {
	sess := cc.cfg.Ops[i].Session
	for j := 0; j < i && sess != 0; j++ {
		if cc.cfg.Ops[j].Session == sess && s.phase(j) == cUnsub {
			return false
		}
	}
	return true
}

// checkInvariants evaluates the cluster catalog on one state.
func (cc *ccompiled) checkInvariants(s cstate) (string, string) {
	// C1 — member isolation: no two conflicting holds coexist anywhere.
	for i := 0; i < cc.n; i++ {
		for j := i + 1; j < cc.n; j++ {
			if both := s.hold(i) & s.hold(j) & cc.conflict[i][j]; both != 0 {
				return "C1-member-isolation", fmt.Sprintf("%s and %s hold conflicting effects on member mask %04b",
					cc.cfg.opName(i), cc.cfg.opName(j), both)
			}
		}
	}
	// C2 — all-or-nothing: aborted rounds ran nothing; done rounds ran
	// every leg.
	for i := 0; i < cc.n; i++ {
		if s.phase(i) == cAborted && s.ran(i) != 0 {
			return "C2-all-or-nothing", fmt.Sprintf("%s aborted after running legs on member mask %04b — half-applied round",
				cc.cfg.opName(i), s.ran(i))
		}
		if s.phase(i) == cDone && s.ran(i) != cc.touch[i] {
			return "C2-all-or-nothing", fmt.Sprintf("%s finished with legs unrun (ran %04b of %04b)",
				cc.cfg.opName(i), s.ran(i), cc.touch[i])
		}
	}
	// C3 — serializability: no crossed pair (i before j on one member
	// and j before i on another).
	for i := 0; i < cc.n; i++ {
		for j := i + 1; j < cc.n; j++ {
			if s.order&orderBit(i, j) != 0 && s.order&orderBit(j, i) != 0 {
				return "C3-serializability", fmt.Sprintf("%s and %s ran in opposite orders on different members",
					cc.cfg.opName(i), cc.cfg.opName(j))
			}
		}
	}
	// C4 — release on terminal.
	for i := 0; i < cc.n; i++ {
		if p := s.phase(i); (p == cDone || p == cAborted) && s.hold(i) != 0 {
			return "C4-release-on-terminal", fmt.Sprintf("%s is terminal but still holds member mask %04b",
				cc.cfg.opName(i), s.hold(i))
		}
	}
	// C5 — session order: no op ran on a member before an op earlier in
	// its session did there.
	for i := 0; i < cc.n; i++ {
		for j := 0; j < i; j++ {
			if cc.shared[i][j] != 0 && s.order&orderBit(i, j) != 0 {
				return "C5-session-order", fmt.Sprintf("%s ran before %s, earlier in its session, on a member they share",
					cc.cfg.opName(i), cc.cfg.opName(j))
			}
		}
	}
	return "", ""
}

func (cc *ccompiled) nonTerminal(s cstate) int {
	for i := 0; i < cc.n; i++ {
		if p := s.phase(i); p != cDone && p != cAborted {
			return i
		}
	}
	return -1
}

func (cc *ccompiled) describe(s cstate) string {
	names := []string{"unsubmitted", "round", "done", "aborted"}
	out := ""
	for i := 0; i < cc.n; i++ {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s(prep=%d,hold=%04b,ran=%04b)",
			cc.cfg.opName(i), names[s.phase(i)], s.prep(i), s.hold(i), s.ran(i))
	}
	return out
}

// ClusterExplore exhaustively enumerates the configuration's
// interleavings breadth-first, checking C1..C5 at every state; a stuck
// non-terminal state is a deadlock. The shared Result/CounterExample
// types keep the driver's reporting identical to the single-node model.
func ClusterExplore(cfg *ClusterConfig, opts ExploreOpts) (*Result, error) {
	cc, err := compileCluster(cfg)
	if err != nil {
		return nil, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 5_000_000
	}
	start := time.Now()

	type edge struct {
		parent cstate
		step   Step
	}
	var initial cstate
	parent := map[cstate]edge{initial: {}}
	queue := []cstate{initial}
	res := &Result{Config: cfg.Name, States: 1}

	trace := func(s cstate) []Step {
		var steps []Step
		for s != initial {
			e := parent[s]
			steps = append(steps, e.step)
			s = e.parent
		}
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		return steps
	}

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]

		if inv, detail := cc.checkInvariants(s); inv != "" {
			res.Violation = &CounterExample{Invariant: inv, Detail: detail, Trace: trace(s)}
			res.Elapsed = time.Since(start)
			return res, nil
		}
		succ := cc.successors(s)
		if len(succ) == 0 {
			if i := cc.nonTerminal(s); i >= 0 {
				res.Violation = &CounterExample{
					Invariant: "deadlock",
					Detail: fmt.Sprintf("stuck state: %s has no enabled action (%s)",
						cc.cfg.opName(i), cc.describe(s)),
					Trace: trace(s),
				}
				res.Elapsed = time.Since(start)
				return res, nil
			}
			continue
		}
		for _, e := range succ {
			res.Transitions++
			if _, seen := parent[e.next]; seen {
				continue
			}
			parent[e.next] = edge{parent: s, step: e.step}
			queue = append(queue, e.next)
			res.States++
			if res.States > opts.MaxStates {
				res.Elapsed = time.Since(start)
				return res, fmt.Errorf("spec: %q exceeded %d states; shrink the configuration", cfg.Name, opts.MaxStates)
			}
		}
	}
	res.Complete = true
	res.Elapsed = time.Since(start)
	return res, nil
}

// ClusterPresets returns the cluster configurations CI explores: the
// acceptance world (two cross rounds, a scan, and per-member traffic
// with aborts), the single-lane corners and the pipelined-session
// worlds of the session-upstream lane, each once with ascending
// leg acquisition and once, as "<name>-parallel", with ParallelLegs —
// the order the implementation's rounds actually acquire in.
func ClusterPresets() []*ClusterConfig {
	out := ascendingPresets()
	for _, c := range ascendingPresets() {
		c.Name += "-parallel"
		c.ParallelLegs = true
		out = append(out, c)
	}
	return out
}

func ascendingPresets() []*ClusterConfig {
	return []*ClusterConfig{
		{
			// Two disjoint-resource cross rounds and a member-local op:
			// rounds serialize on the coordinator, locals flow freely.
			Name:    "cross-pair",
			Members: 2,
			Ops: []ClusterOp{
				{Name: "X", Touch: []int{0, 1}, Res: []int{1, 1}},
				{Name: "Y", Touch: []int{0, 1}, Res: []int{2, 2}},
				{Name: "L", Touch: []int{0}, Res: []int{1}},
			},
		},
		{
			// A full-fleet scan racing conflicting single-member writes —
			// the workload the twe-load cluster battery drives.
			Name:       "scan-vs-puts",
			Members:    3,
			AllowAbort: true,
			Ops: []ClusterOp{
				{Name: "scan", Touch: []int{0, 1, 2}, Res: []int{ResAll, ResAll, ResAll}},
				{Name: "p0", Touch: []int{0}, Res: []int{1}},
				{Name: "p1", Touch: []int{1}, Res: []int{1}},
				{Name: "p2", Touch: []int{2}, Res: []int{1}},
			},
		},
		{
			// Two conflicting cross rounds with no abort escape: the
			// coordinator mutex (or, without it, ascending acquisition) is
			// all that stands between this and the classic hold-wait cycle.
			Name:    "cross-conflict",
			Members: 2,
			Ops: []ClusterOp{
				{Name: "X", Touch: []int{0, 1}, Res: []int{1, 1}},
				{Name: "Y", Touch: []int{0, 1}, Res: []int{1, 1}},
			},
		},
		{
			// The acceptance configuration: two overlapping cross rounds,
			// a scan, and a conflicting local, all abortable.
			Name:       "cross-full",
			Members:    2,
			AllowAbort: true,
			Ops: []ClusterOp{
				{Name: "X", Touch: []int{0, 1}, Res: []int{1, 1}},
				{Name: "scan", Touch: []int{0, 1}, Res: []int{ResAll, ResAll}},
				{Name: "L0", Touch: []int{0}, Res: []int{1}},
				{Name: "L1", Touch: []int{1}, Res: []int{1}},
			},
		},
		{
			// The router's two-phase lane as a pipelined session drives it:
			// a put, a scan, then two more puts sent while the scan's round
			// is open, each queueing behind the scan's hold on its member;
			// another session's cross write races them, and any round may
			// abort.
			Name:         "session-scan",
			Members:      2,
			AllowAbort:   true,
			PrepareMutex: true,
			Ops: []ClusterOp{
				{Name: "put0", Touch: []int{0}, Res: []int{1}, Session: 1},
				{Name: "scan", Touch: []int{0, 1}, Res: []int{ResAll, ResAll}, Session: 1},
				{Name: "put0'", Touch: []int{0}, Res: []int{1}, Session: 1},
				{Name: "put1", Touch: []int{1}, Res: []int{2}, Session: 1},
				{Name: "X", Touch: []int{0, 1}, Res: []int{1, 2}, Session: 2},
			},
		},
		{
			// Back-to-back rounds of one session with a put between them,
			// against another session's conflicting round, abort-free: the
			// prepare-only mutex plus each member's session order must
			// leave no hold-wait cycle.
			Name:         "session-rounds",
			Members:      2,
			PrepareMutex: true,
			Ops: []ClusterOp{
				{Name: "X1", Touch: []int{0, 1}, Res: []int{1, 1}, Session: 1},
				{Name: "L", Touch: []int{0}, Res: []int{1}, Session: 1},
				{Name: "X2", Touch: []int{0, 1}, Res: []int{2, 2}, Session: 1},
				{Name: "Y", Touch: []int{0, 1}, Res: []int{1, 1}, Session: 2},
			},
		},
	}
}

// ClusterPreset returns the named cluster preset, or nil.
func ClusterPreset(name string) *ClusterConfig {
	for _, c := range ClusterPresets() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ClusterPresetNames lists the cluster preset names in order.
func ClusterPresetNames() []string {
	ps := ClusterPresets()
	names := make([]string, len(ps))
	for i, c := range ps {
		names[i] = c.Name
	}
	return names
}
