package obs

import (
	"fmt"
	"sync"
	"testing"
)

// sameShardEvents returns n events that all land in shard 0 (Task is a
// multiple of numShards, Worker 0) with increasing timestamps.
func sameShardEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{TS: int64(i + 1), Kind: KindSubmit, Task: uint64(i) * numShards}
	}
	return out
}

func TestRingWraparound(t *testing.T) {
	const cap = 4
	tr := New(WithCapacity(cap))
	evs := sameShardEvents(10)
	for _, e := range evs {
		tr.Emit(e)
	}
	if got := tr.Len(); got != cap {
		t.Fatalf("Len = %d, want %d", got, cap)
	}
	if got := tr.Dropped(); got != 10-cap {
		t.Fatalf("Dropped = %d, want %d", got, 10-cap)
	}
	got := tr.Events()
	if len(got) != cap {
		t.Fatalf("Events len = %d, want %d", len(got), cap)
	}
	// The retained events are the newest cap; order by TS.
	for i, e := range got {
		want := evs[10-cap+i]
		if e.TS != want.TS || e.Task != want.Task {
			t.Errorf("Events[%d] = TS %d T%d, want TS %d T%d", i, e.TS, e.Task, want.TS, want.Task)
		}
	}
}

func TestShardMergeSorted(t *testing.T) {
	tr := New(WithCapacity(16))
	// Interleave tasks 0..7 (one per shard) with decreasing timestamps so
	// the merge has real work to do.
	n := 0
	for ts := int64(40); ts > 0; ts -= 5 {
		tr.Emit(Event{TS: ts, Kind: KindStart, Task: uint64(n % numShards)})
		n++
	}
	got := tr.Events()
	if len(got) != n {
		t.Fatalf("Events len = %d, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].TS > got[i].TS {
			t.Fatalf("Events not sorted at %d: %d > %d", i, got[i-1].TS, got[i].TS)
		}
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d, want 0", d)
	}
}

func TestEmitStampsClock(t *testing.T) {
	tr := New()
	tr.Emit(Event{Kind: KindSubmit, Task: 1})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("Events len = %d, want 1", len(evs))
	}
	if evs[0].TS <= 0 {
		t.Errorf("TS = %d, want > 0 (auto-stamped)", evs[0].TS)
	}
	if c := tr.Clock(); c < evs[0].TS {
		t.Errorf("Clock() = %d went backwards vs event TS %d", c, evs[0].TS)
	}
}

func TestConcurrentEmit(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
	)
	tr := New(WithCapacity(64)) // force wraparound under contention
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Kind: KindStart, Task: uint64(g), Worker: int32(i)})
			}
		}(g)
	}
	wg.Wait()
	total := uint64(tr.Len()) + tr.Dropped()
	if total != goroutines*perG {
		t.Fatalf("Len+Dropped = %d, want %d", total, goroutines*perG)
	}
	for _, e := range tr.Events() {
		if e.Kind != KindStart || e.Task >= goroutines {
			t.Fatalf("torn or corrupt event: %+v", e)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindSubmit, Task: 1}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Clock() != 0 {
		t.Error("nil tracer reported nonzero state")
	}
	if tr.Events() != nil {
		t.Error("nil tracer Events != nil")
	}
	if tr.Metrics() != nil {
		t.Error("nil tracer Metrics != nil")
	}
	var s Snapshot = tr.Metrics().Snapshot() // nil *Metrics is valid too
	if s != (Snapshot{}) {
		t.Error("nil Metrics snapshot not zero")
	}
	if err := tr.WriteChromeTrace(nil); err == nil {
		t.Error("WriteChromeTrace on nil tracer: want error")
	}
}

// TestNilTracerZeroAlloc is the acceptance check for the untraced fast
// path: the hooks compiled into core/pool/schedulers reduce to a nil
// check and must not allocate.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindStart, Task: 42, Worker: 1})
		if tr.Metrics() != nil {
			t.Fatal("nil tracer has metrics")
		}
		_ = tr.Clock()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer hook path allocates %v per op, want 0", allocs)
	}
}

// TestWithoutRing pins the metrics-only tracer: it records no events and
// allocates nothing per Emit, while its metrics and contention profile
// keep counting.
func TestWithoutRing(t *testing.T) {
	tr := New(WithoutRing(), WithCapacity(64))
	if tr.Recording() {
		t.Fatal("ring-less tracer reports Recording")
	}
	if !New().Recording() {
		t.Fatal("default tracer does not report Recording")
	}
	var nilT *Tracer
	if nilT.Recording() {
		t.Fatal("nil tracer reports Recording")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindStart, Task: 42, Worker: 1})
		tr.Metrics().TasksSubmitted.Add(1)
		tr.Metrics().ObserveAdmission(1500)
	})
	if allocs != 0 {
		t.Fatalf("ring-less Emit allocates %v per op, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("ring-less tracer retained events: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	if s := tr.Metrics().Snapshot(); s.TasksSubmitted == 0 || s.AdmissionCount == 0 {
		t.Fatalf("ring-less tracer lost its metrics: %+v", s)
	}
	tr.Contention().Observe("Root:X", 5)
	if ns, n := tr.Contention().Total(); ns != 5 || n != 1 {
		t.Fatalf("ring-less contention = %d/%d, want 5/1", ns, n)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindSubmit, KindStatus, KindEnable, KindStart, KindBlock,
		KindUnblock, KindSpawn, KindJoin, KindFinish, KindConflictStall,
		KindScan, KindViolation, KindPeak,
		KindCancel, KindPanic, KindDeadline, KindRetry, KindBreaker}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("Kind %d: empty or duplicate String %q", k, s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{TS: 42, Kind: KindBlock, Task: 3, Other: 7, Worker: 2,
		Name: "acc", Detail: "reads X"}
	want := "42ns block T3(acc) other=T7 w2 reads X"
	if got := e.String(); got != want {
		t.Errorf("Event.String() = %q, want %q", got, want)
	}
}

func BenchmarkEmit(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			tr.Emit(Event{Kind: KindStart, Task: i})
			i++
		}
	})
}

func BenchmarkEmitNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindStart, Task: uint64(i)})
	}
}

func ExampleTracer() {
	tr := New()
	tr.Emit(Event{TS: 1, Kind: KindSubmit, Task: 1, Name: "demo"})
	tr.Emit(Event{TS: 2, Kind: KindStart, Task: 1, Name: "demo", Worker: 1})
	tr.Emit(Event{TS: 3, Kind: KindFinish, Task: 1, Name: "demo", Worker: 1})
	for _, e := range tr.Events() {
		fmt.Println(e)
	}
	// Output:
	// 1ns submit T1(demo)
	// 2ns start T1(demo) w1
	// 3ns finish T1(demo) w1
}
