package obs

import (
	"sync"
	"testing"
)

func TestContentionObserveAndTotal(t *testing.T) {
	var c Contention
	c.Observe("Root:Shard:[1]", 100)
	c.Observe("Root:Shard:[2]", 200)
	c.Observe("Root:Session:[5]", 50)
	ns, n := c.Total()
	if ns != 350 || n != 3 {
		t.Fatalf("Total = %d/%d, want 350/3", ns, n)
	}
}

func TestContentionGuards(t *testing.T) {
	var nilC *Contention
	nilC.Observe("Root:X", 10) // must not panic
	if ns, n := nilC.Total(); ns != 0 || n != 0 {
		t.Fatalf("nil Total = %d/%d, want 0/0", ns, n)
	}
	if top := nilC.TopK(5); top != nil {
		t.Fatalf("nil TopK = %v, want nil", top)
	}
	var c Contention
	c.Observe("", 100)      // empty path ignored
	c.Observe("Root:X", 0)  // non-positive ignored
	c.Observe("Root:X", -5) // non-positive ignored
	if ns, n := c.Total(); ns != 0 || n != 0 {
		t.Fatalf("guarded observations leaked: %d/%d", ns, n)
	}
	if top := c.TopK(0); top != nil {
		t.Fatalf("TopK(0) = %v, want nil", top)
	}
}

// TestContentionTopKSubtrees pins the ranking semantics: entries aggregate
// whole subtrees (self + descendants), the bare RPL root is excluded, and
// ties sort by path for determinism.
func TestContentionTopKSubtrees(t *testing.T) {
	var c Contention
	c.Observe("Root:Shard:[1]", 100)
	c.Observe("Root:Shard:[2]", 200)
	c.Observe("Root:Session:[5]", 50)
	want := []ContentionEntry{
		{Path: "Root:Shard", StallNS: 300, Count: 2},
		{Path: "Root:Shard:[2]", StallNS: 200, Count: 1},
		{Path: "Root:Shard:[1]", StallNS: 100, Count: 1},
		{Path: "Root:Session", StallNS: 50, Count: 1},
		{Path: "Root:Session:[5]", StallNS: 50, Count: 1},
	}
	got := c.TopK(10)
	if len(got) != len(want) {
		t.Fatalf("TopK = %+v, want %d entries", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TopK[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The bare root never appears, no matter how hot the tree is.
	for _, e := range got {
		if e.Path == "Root" {
			t.Errorf("bare RPL root leaked into TopK: %+v", e)
		}
	}
	// k bounds the result after sorting.
	if top := c.TopK(1); len(top) != 1 || top[0].Path != "Root:Shard" {
		t.Errorf("TopK(1) = %+v, want just Root:Shard", top)
	}
}

// TestContentionInteriorObservation: stall charged to an interior prefix
// (a coarse effect like "writes Root:Shard") aggregates with leaf charges
// below it.
func TestContentionInteriorObservation(t *testing.T) {
	var c Contention
	c.Observe("Root:Shard", 40)
	c.Observe("Root:Shard:[3]", 60)
	top := c.TopK(1)
	if len(top) != 1 || top[0] != (ContentionEntry{Path: "Root:Shard", StallNS: 100, Count: 2}) {
		t.Fatalf("TopK = %+v, want Root:Shard aggregating 100ns over 2", top)
	}
}

func TestContentionConcurrentObserve(t *testing.T) {
	var c Contention
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Observe("Root:Shard:[7]", 1)
			}
		}()
	}
	wg.Wait()
	ns, n := c.Total()
	if ns != 8000 || n != 8000 {
		t.Fatalf("Total = %d/%d, want 8000/8000", ns, n)
	}
}

func TestTracerContentionAccessor(t *testing.T) {
	var nilT *Tracer
	if nilT.Contention() != nil {
		t.Fatal("nil Tracer must hand out a nil (no-op) Contention")
	}
	nilT.Contention().Observe("Root:X", 5) // must not panic
	tr := New()
	tr.Contention().Observe("Root:X", 5)
	if ns, n := tr.Contention().Total(); ns != 5 || n != 1 {
		t.Fatalf("tracer-owned contention = %d/%d, want 5/1", ns, n)
	}
}
