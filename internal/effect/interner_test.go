package effect

import (
	"fmt"
	"sync"
	"testing"

	"twe/internal/rpl"
)

func TestInternerIdentity(t *testing.T) {
	in := NewInterner(0)
	a1 := in.Intern(rpl.MustParse("srv:data:[3]"))
	a2 := in.Intern(rpl.MustParse("srv:data:[3]"))
	b := in.Intern(rpl.MustParse("srv:data:[4]"))
	if a1.InternID() == 0 || a2.InternID() == 0 || b.InternID() == 0 {
		t.Fatalf("fully specified RPLs not interned: %d %d %d",
			a1.InternID(), a2.InternID(), b.InternID())
	}
	if a1.InternID() != a2.InternID() {
		t.Errorf("same region got two ids: %d vs %d", a1.InternID(), a2.InternID())
	}
	if a1.InternID() == b.InternID() {
		t.Errorf("distinct regions share id %d", a1.InternID())
	}
	if got := in.Resident(); got != 2 {
		t.Errorf("Resident = %d, want 2", got)
	}
}

func TestInternerSkipsWildcards(t *testing.T) {
	in := NewInterner(0)
	for _, s := range []string{"srv:*", "srv:[?]", "srv:[p]", "Root"} {
		r := in.Intern(rpl.MustParse(s))
		if s != "Root" && r.InternID() != 0 {
			t.Errorf("%s: interned a non-fully-specified RPL (id %d)", s, r.InternID())
		}
	}
	// Root is fully specified (no wildcards) and may legitimately intern.
}

// TestInternedCompareAgreesWithStructural is the soundness gate: on a
// matrix of interned, plain, and cross-instance RPLs, the fast paths in
// Disjoint/Included must agree with the structural algorithms.
func TestInternedCompareAgreesWithStructural(t *testing.T) {
	specs := []string{
		"A", "A:B", "A:B:C", "A:[1]", "A:[2]", "B", "A:B:[7]",
	}
	wild := []string{"A:*", "A:B:*", "*", "A:[?]", "A:[p]:C"}
	in1, in2 := NewInterner(0), NewInterner(0)

	var all []rpl.RPL
	for _, s := range specs {
		r := rpl.MustParse(s)
		all = append(all, r, in1.Intern(r), in2.Intern(r))
	}
	for _, s := range wild {
		all = append(all, rpl.MustParse(s))
	}
	for _, a := range all {
		for _, b := range all {
			plainA := a.WithInternID(0)
			plainB := b.WithInternID(0)
			if got, want := a.Disjoint(b), plainA.Disjoint(plainB); got != want {
				t.Errorf("Disjoint(%s[%d], %s[%d]) = %v, structural %v",
					a, a.InternID(), b, b.InternID(), got, want)
			}
			if got, want := a.Included(b), plainA.Included(plainB); got != want {
				t.Errorf("Included(%s[%d], %s[%d]) = %v, structural %v",
					a, a.InternID(), b, b.InternID(), got, want)
			}
		}
	}
}

func TestInternerCapacityBound(t *testing.T) {
	in := NewInterner(2)
	a := in.Intern(rpl.MustParse("X:[0]"))
	b := in.Intern(rpl.MustParse("X:[1]"))
	c := in.Intern(rpl.MustParse("X:[2]"))
	if a.InternID() == 0 || b.InternID() == 0 {
		t.Fatalf("first two regions should intern")
	}
	if c.InternID() != 0 {
		t.Fatalf("table overflow should leave RPL plain, got id %d", c.InternID())
	}
	// Overflowed RPLs still compare correctly against interned ones.
	if !c.Disjoint(a) || c.Disjoint(c) {
		t.Errorf("overflowed RPL compares wrong")
	}
	if got := in.Resident(); got != 2 {
		t.Errorf("Resident = %d, want 2", got)
	}
}

// TestManyInternersStayLive: every runtime owns an interner, and a test
// binary run with -count builds hundreds of runtimes, so the instance-tag
// space must outlast that: an interner past the last tag is inert, and
// the runtime owning it silently loses the interned fast path.
func TestManyInternersStayLive(t *testing.T) {
	var in *Interner
	for i := 0; i < 1000; i++ {
		in = NewInterner(0)
	}
	if in.Intern(rpl.MustParse("X:[0]")).InternID() == 0 || in.Resident() != 1 {
		t.Fatalf("interner %d is inert (resident %d)", instanceIDs.Load(), in.Resident())
	}
}

func TestInternSet(t *testing.T) {
	in := NewInterner(0)
	s := MustParse("reads A, writes B:[2], writes C:*")
	is := in.InternSet(s)
	if !s.Equal(is) {
		t.Fatalf("InternSet changed the set: %s vs %s", s, is)
	}
	interned := 0
	for _, e := range is.Effects() {
		if e.Region.InternID() != 0 {
			interned++
		}
	}
	if interned != 2 {
		t.Errorf("interned %d regions, want 2 (C:* is not fully specified)", interned)
	}
	// Interfering / covering relations survive interning.
	other := in.InternSet(MustParse("reads B:[2]"))
	if s.NonInterfering(other) != is.NonInterfering(other) {
		t.Errorf("NonInterfering disagrees after interning")
	}
	if !other.Included(is) {
		t.Errorf("reads B:[2] should be included in %s", is)
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := NewInterner(0)
	var wg sync.WaitGroup
	ids := make([][]uint32, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]uint32, 64)
			for i := 0; i < 64; i++ {
				r := in.Intern(rpl.MustParse(fmt.Sprintf("R:[%d]", i%16)))
				ids[g][i] = r.InternID()
			}
		}()
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range ids[g] {
			if ids[g][i] == 0 || ids[g][i] != ids[0][i%64] {
				t.Fatalf("goroutine %d slot %d: id %d disagrees with %d",
					g, i, ids[g][i], ids[0][i%64])
			}
		}
	}
	if got := in.Resident(); got != 16 {
		t.Errorf("Resident = %d, want 16", got)
	}
}
