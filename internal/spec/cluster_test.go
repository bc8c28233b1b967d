package spec

import (
	"strings"
	"testing"
)

func clusterExplore(t *testing.T, cfg *ClusterConfig) *Result {
	t.Helper()
	res, err := ClusterExplore(cfg, ExploreOpts{})
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return res
}

// TestClusterPresetsClean: every cluster preset explores its full
// reachable space with no invariant violation and no deadlock.
func TestClusterPresetsClean(t *testing.T) {
	for _, cfg := range ClusterPresets() {
		res := clusterExplore(t, cfg)
		if res.Violation != nil {
			t.Errorf("%s: unexpected violation:\n%s", cfg.Name, res.Violation)
		}
		if !res.Complete {
			t.Errorf("%s: exploration incomplete", cfg.Name)
		}
		if res.States < 10 {
			t.Errorf("%s: only %d states — configuration too trivial to mean anything", cfg.Name, res.States)
		}
	}
}

// TestClusterConcurrentRoundsSafe: under ascending acquisition,
// removing the coordinator mutex alone is safe — the order is
// deadlock-free and hold-all-before-run keeps rounds serializable. There
// the mutex buys simplicity, not safety, and the model proves it. The
// parallel-legs presets acquire in any order and are left to
// TestClusterParallelLegsNeedMutex.
func TestClusterConcurrentRoundsSafe(t *testing.T) {
	for _, cfg := range ClusterPresets() {
		if cfg.ParallelLegs {
			continue
		}
		cfg.Mutations.ConcurrentRounds = true
		res := clusterExplore(t, cfg)
		if res.Violation != nil {
			t.Errorf("%s + concurrent rounds: unexpected violation:\n%s", cfg.Name, res.Violation)
		}
		if !res.Complete {
			t.Errorf("%s + concurrent rounds: exploration incomplete", cfg.Name)
		}
	}
}

// TestClusterParallelLegsNeedMutex: a round that sends every prepare at
// once acquires its legs in any order, so two concurrent rounds can each
// hold one member the other waits on. Every parallel-legs preset is
// clean under the coordinator mutex (TestClusterPresetsClean); without
// it the two conflicting rounds of cross-conflict deadlock. The mutex
// is the deadlock-freedom argument of the implementation's lane.
func TestClusterParallelLegsNeedMutex(t *testing.T) {
	n := 0
	for _, cfg := range ClusterPresets() {
		if cfg.ParallelLegs {
			n++
		}
	}
	if n != len(ascendingPresets()) {
		t.Fatalf("%d parallel-legs presets, want one per ascending preset (%d)", n, len(ascendingPresets()))
	}
	cfg := ClusterPreset("cross-conflict-parallel")
	if cfg == nil || !cfg.ParallelLegs {
		t.Fatal("no parallel-legs cross-conflict preset")
	}
	cfg.Mutations.ConcurrentRounds = true
	res := clusterExplore(t, cfg)
	if res.Violation == nil || res.Violation.Invariant != "deadlock" {
		t.Fatalf("parallel legs without the mutex: want a deadlock, got %v", res.Violation)
	}
}

// mutation → (preset, invariant expected to catch it). Each seeded
// protocol break must be caught, with a shortest counterexample trace.
func TestClusterMutationsCaught(t *testing.T) {
	cases := []struct {
		name      string
		preset    string
		mutate    func(*ClusterMutations)
		invariant string
	}{
		{"unordered-prepare-deadlocks", "cross-conflict",
			func(m *ClusterMutations) { m.UnorderedPrepare = true }, "deadlock"},
		{"parallel-legs-concurrent-deadlocks", "cross-conflict-parallel",
			func(m *ClusterMutations) { m.ConcurrentRounds = true }, "deadlock"},
		{"early-commit-parallel-breaks-atomicity", "cross-full-parallel",
			func(m *ClusterMutations) { m.EarlyCommit = true }, "C2-all-or-nothing"},
		{"early-commit-breaks-atomicity", "cross-full",
			func(m *ClusterMutations) { m.EarlyCommit = true }, "C2-all-or-nothing"},
		{"early-commit-concurrent-crosses", "cross-conflict",
			func(m *ClusterMutations) { m.EarlyCommit = true; m.ConcurrentRounds = true }, "C3-serializability"},
		{"leak-on-abort", "scan-vs-puts",
			func(m *ClusterMutations) { m.LeakOnAbort = true }, "C4-release-on-terminal"},
		{"prepare-on-foreign-session", "session-scan",
			func(m *ClusterMutations) { m.PrepareOnForeignSession = true }, "C5-session-order"},
		{"prepare-on-foreign-session-parallel", "session-scan-parallel",
			func(m *ClusterMutations) { m.PrepareOnForeignSession = true }, "C5-session-order"},
		{"prepare-on-foreign-session-rounds", "session-rounds-parallel",
			func(m *ClusterMutations) { m.PrepareOnForeignSession = true }, "C5-session-order"},
		{"commit-before-all-acked-aborts", "session-scan-parallel",
			func(m *ClusterMutations) { m.CommitBeforeAllAcked = true }, "C2-all-or-nothing"},
		{"commit-before-all-acked-crosses", "session-rounds-parallel",
			func(m *ClusterMutations) { m.CommitBeforeAllAcked = true }, "C3-serializability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ClusterPreset(tc.preset)
			if cfg == nil {
				t.Fatalf("no preset %q", tc.preset)
			}
			tc.mutate(&cfg.Mutations)
			res := clusterExplore(t, cfg)
			if res.Violation == nil {
				t.Fatalf("mutation went uncaught (%d states explored)", res.States)
			}
			if tc.invariant != "" && res.Violation.Invariant != tc.invariant {
				t.Fatalf("caught by %s, expected %s:\n%s", res.Violation.Invariant, tc.invariant, res.Violation)
			}
			if len(res.Violation.Trace) == 0 {
				t.Fatal("violation has an empty trace")
			}
		})
	}
}

// TestClusterCounterexampleReadable: the deadlock trace for the classic
// lock-ordering cycle names the acquisition steps.
func TestClusterCounterexampleReadable(t *testing.T) {
	cfg := ClusterPreset("cross-conflict")
	cfg.Mutations.UnorderedPrepare = true
	res := clusterExplore(t, cfg)
	if res.Violation == nil {
		t.Fatal("expected a deadlock")
	}
	s := res.Violation.String()
	if !strings.Contains(s, "prepare") || !strings.Contains(s, "deadlock") {
		t.Fatalf("counterexample does not read as a prepare deadlock:\n%s", s)
	}
}

// TestClusterPresetStatesPinned: the session model only adds to the
// catalog. Every preset without sessions explores exactly the state
// space it did before sessions existed, and the session presets are
// there with their parallel twins.
func TestClusterPresetStatesPinned(t *testing.T) {
	want := map[string]int{
		"cross-pair": 84, "scan-vs-puts": 2514, "cross-conflict": 21, "cross-full": 2454,
		"cross-pair-parallel": 101, "scan-vs-puts-parallel": 3174,
		"cross-conflict-parallel": 25, "cross-full-parallel": 2778,
	}
	sessions := 0
	for _, cfg := range ClusterPresets() {
		if cfg.PrepareMutex {
			sessions++
			continue
		}
		if got := clusterExplore(t, cfg).States; got != want[cfg.Name] {
			t.Errorf("%s: %d states, want %d", cfg.Name, got, want[cfg.Name])
		}
	}
	if sessions != 4 {
		t.Errorf("%d session presets, want 4 (two, each with a parallel twin)", sessions)
	}
}

// TestClusterSessionOpsOverlapRound: in the session presets a later op
// really is sent while its session's round is open — the model has no
// barrier — so C5 staying clean on them (TestClusterPresetsClean) is the
// member's ordering at work.
func TestClusterSessionOpsOverlapRound(t *testing.T) {
	cfg := ClusterPreset("session-scan-parallel")
	cc, err := compileCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const scan, later = 1, 3 // put1 follows the scan in session 1
	seen := map[cstate]bool{{}: true}
	queue := []cstate{{}}
	overlapped := false
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.phase(scan) == cRound && s.phase(later) == cRound {
			overlapped = true
		}
		for _, e := range cc.successors(s) {
			if !seen[e.next] {
				seen[e.next] = true
				queue = append(queue, e.next)
			}
		}
	}
	if !overlapped {
		t.Fatal("no state has the later op in flight while the scan's round is open: the model still barriers")
	}
}

// TestClusterValidate rejects malformed configurations.
func TestClusterValidate(t *testing.T) {
	bad := []*ClusterConfig{
		{Name: "no-members", Members: 0, Ops: []ClusterOp{{Touch: []int{0}, Res: []int{1}}}},
		{Name: "no-ops", Members: 2},
		{Name: "range", Members: 2, Ops: []ClusterOp{{Touch: []int{5}, Res: []int{1}}}},
		{Name: "dup", Members: 2, Ops: []ClusterOp{{Touch: []int{0, 0}, Res: []int{1, 1}}}},
		{Name: "arity", Members: 2, Ops: []ClusterOp{{Touch: []int{0, 1}, Res: []int{1}}}},
		{Name: "session", Members: 2, Ops: []ClusterOp{{Touch: []int{0}, Res: []int{1}, Session: -1}}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated, want error", cfg.Name)
		}
	}
}
