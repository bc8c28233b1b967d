//go:build !race

package pool

import (
	"sync/atomic"
	"testing"
)

// TestRunnerEntriesAllocationFree: queuing a pointer Runner or a plain
// func allocates nothing per unit — the pool's one-field entry holds
// either as is.
func TestRunnerEntriesAllocationFree(t *testing.T) {
	p := New(1)
	defer p.Shutdown()
	var ran atomic.Int64
	u := &workerUnit{fn: func(int, int) { ran.Add(1) }}
	units := []*workerUnit{u, u, u, u}
	f := func() { ran.Add(1) }
	allocs := testing.AllocsPerRun(200, func() {
		p.SubmitRunner(u)
		SubmitAll(p, units)
		p.Submit(f)
		p.Quiesce()
	})
	if allocs != 0 {
		t.Fatalf("queuing runners allocates %.1f times per round, want 0", allocs)
	}
	if ran.Load() == 0 {
		t.Fatal("no unit ran")
	}
}
