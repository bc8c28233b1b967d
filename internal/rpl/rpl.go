// Package rpl implements Region Path Lists (RPLs), the hierarchical region
// descriptors of the DPJ/TWEJava effect system (Heumann & Adve, PPoPP 2013,
// §2.3.1). An RPL is a colon-separated list of elements rooted at the
// implicit region Root. Elements are simple names, run-time array indices
// [i], or the wildcards * (any sequence of zero or more elements) and [?]
// (any single index). RPLs without wildcards are "fully specified" and name
// a single region; RPLs with wildcards denote sets of regions.
//
// The package provides the two relations everything else is built on:
//
//   - Disjoint: the region sets denoted by two RPLs do not overlap, so a
//     read/write on one can never touch the other.
//   - Included (⊆, "nested under" in DPJ terms is not used here; TWE uses
//     set inclusion of the denoted region sets): every region denoted by the
//     first RPL is also denoted by the second.
//
// These are the dynamic RPLs of the paper: region parameters and index
// expressions have already been evaluated to concrete names and integers.
package rpl

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the element forms of §2.3.1.
type Kind uint8

const (
	// Name is a simple region name element such as Top or TF.
	Name Kind = iota
	// Index is a run-time array index element [i].
	Index
	// Star is the * wildcard, matching any sequence of zero or more
	// elements.
	Star
	// AnyIndex is the [?] wildcard, matching any single index element.
	AnyIndex
	// Param is a symbolic index element [p] naming a method or task
	// parameter whose run-time value is unknown to the static checker.
	// Two occurrences of the same parameter denote the same (unknown)
	// index; different parameters may alias, so the relations treat them
	// conservatively. DPJ's static RPLs have exactly this element form;
	// dynamic RPLs never contain it (parameters are substituted at run
	// time, §2.3.1).
	Param
)

// Elem is one element of an RPL.
type Elem struct {
	Kind Kind
	// Name holds the region name when Kind == Name.
	Name string
	// Index holds the array index when Kind == Index.
	Index int
}

// N returns a simple name element.
func N(name string) Elem { return Elem{Kind: Name, Name: name} }

// Idx returns an index element [i].
func Idx(i int) Elem { return Elem{Kind: Index, Index: i} }

// Any is the * wildcard element.
var Any = Elem{Kind: Star}

// AnyIdx is the [?] wildcard element.
var AnyIdx = Elem{Kind: AnyIndex}

// P returns a symbolic parameter index element [name].
func P(name string) Elem { return Elem{Kind: Param, Name: name} }

// String renders the element in the paper's surface syntax.
func (e Elem) String() string {
	switch e.Kind {
	case Name:
		return e.Name
	case Index:
		return "[" + strconv.Itoa(e.Index) + "]"
	case Star:
		return "*"
	case AnyIndex:
		return "[?]"
	case Param:
		return "[" + e.Name + "]"
	default:
		return fmt.Sprintf("<bad elem kind %d>", e.Kind)
	}
}

// IsWildcard reports whether the element is * or [?].
func (e Elem) IsWildcard() bool { return e.Kind == Star || e.Kind == AnyIndex }

// sameConcrete reports whether two non-Star elements name the same concrete
// element, treating [?] as overlapping any index. It must only be called
// with Kinds other than Star.
func overlapsElem(a, b Elem) bool {
	// A parameter element stands for an unknown index: it can coincide
	// with any index-like element (conservatively including a different
	// parameter, which may alias), but never with a name.
	if a.Kind == Param || b.Kind == Param {
		return a.Kind != Name && b.Kind != Name
	}
	if a.Kind == AnyIndex {
		return b.Kind == Index || b.Kind == AnyIndex
	}
	if b.Kind == AnyIndex {
		return a.Kind == Index
	}
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == Name {
		return a.Name == b.Name
	}
	return a.Index == b.Index
}

// RPL is a region path list. The implicit leading Root element is not
// stored; the zero value denotes the region Root itself.
type RPL struct {
	elems []Elem
	// iid is the intern id stamped by an effect.Interner (0 = not
	// interned). The top InternIDInstanceBits identify the interner
	// instance, the rest the slot; ids are only comparable within one
	// instance. Only fully specified RPLs ever carry an id, and two RPLs
	// with equal nonzero ids from the same instance denote the identical
	// region — which is what licenses the O(1) fast paths in Disjoint and
	// Included.
	iid uint32
}

// Intern-id layout: an id packs an interner-instance tag in the top bits
// and a slot number in the low bits, so ids from different interners are
// never confused for each other.
const (
	// InternIDInstanceBits is the width of the instance tag. Every
	// runtime owns an interner, so a process that builds many runtimes
	// (a test binary run with -count, a long-lived host) needs room for
	// thousands of tags; 16 bits leave 65535 slots per interner, far
	// above effect.DefaultInternerCap.
	InternIDInstanceBits = 16
	// InternIDSlotBits is the width of the slot number.
	InternIDSlotBits = 32 - InternIDInstanceBits
)

// WithInternID returns a copy of r carrying the given intern id. Callers
// (the effect.Interner) must only stamp fully specified RPLs, and must
// guarantee that within one interner instance equal ids ⇔ equal regions.
func (r RPL) WithInternID(id uint32) RPL {
	r.iid = id
	return r
}

// InternID returns the intern id stamped on r (0 = not interned).
func (r RPL) InternID() uint32 { return r.iid }

// sameInternInstance reports whether two nonzero intern ids came from the
// same interner instance and are therefore comparable.
func sameInternInstance(a, b uint32) bool {
	return a>>InternIDSlotBits == b>>InternIDSlotBits
}

// New builds an RPL from elements (Root-implicit).
func New(elems ...Elem) RPL {
	cp := make([]Elem, len(elems))
	copy(cp, elems)
	return RPL{elems: cp}
}

// Root is the RPL consisting only of the implicit Root element.
var Root = RPL{}

// RootStar is the RPL Root:*, which covers every region. It is the region
// of the top effect "writes Root:*".
var RootStar = New(Any)

// Parse parses the surface syntax "A:B:[3]:*:[?]". A leading "Root:" or a
// bare "Root" is accepted and stripped. Whitespace around elements is
// ignored.
func Parse(s string) (RPL, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "Root" {
		return Root, nil
	}
	parts := strings.Split(s, ":")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	// The implicit leading Root element is accepted and stripped after
	// tokenizing, so "Root : A" and "Root:A" read the same.
	if parts[0] == "Root" {
		parts = parts[1:]
	}
	elems := make([]Elem, 0, len(parts))
	for _, p := range parts {
		switch {
		case p == "":
			return RPL{}, fmt.Errorf("rpl: empty element in %q", s)
		case p == "*":
			elems = append(elems, Any)
		case p == "[?]":
			elems = append(elems, AnyIdx)
		case strings.HasPrefix(p, "[") && strings.HasSuffix(p, "]"):
			inner := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(p, "["), "]"))
			if n, err := strconv.Atoi(inner); err == nil {
				elems = append(elems, Idx(n))
			} else if isIdent(inner) {
				elems = append(elems, P(inner))
			} else {
				return RPL{}, fmt.Errorf("rpl: bad index element %q", p)
			}
		default:
			if strings.ContainsAny(p, "[]*:? \t") {
				return RPL{}, fmt.Errorf("rpl: malformed element %q in %q", p, s)
			}
			elems = append(elems, N(p))
		}
	}
	return RPL{elems: elems}, nil
}

// MustParse is Parse that panics on error; for literals in tests and
// examples.
func MustParse(s string) RPL {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// String renders the RPL with its implicit Root prefix.
func (r RPL) String() string {
	if len(r.elems) == 0 {
		return "Root"
	}
	var b strings.Builder
	b.WriteString("Root")
	for _, e := range r.elems {
		b.WriteByte(':')
		b.WriteString(e.String())
	}
	return b.String()
}

// Len returns the number of explicit elements (excluding Root).
func (r RPL) Len() int { return len(r.elems) }

// Elem returns the i-th explicit element.
func (r RPL) Elem(i int) Elem { return r.elems[i] }

// Elems returns a copy of the element slice.
func (r RPL) Elems() []Elem {
	cp := make([]Elem, len(r.elems))
	copy(cp, r.elems)
	return cp
}

// Append returns r extended with more elements.
func (r RPL) Append(elems ...Elem) RPL {
	out := make([]Elem, 0, len(r.elems)+len(elems))
	out = append(out, r.elems...)
	out = append(out, elems...)
	return RPL{elems: out}
}

// FullySpecified reports whether the RPL contains no wildcard or parameter
// elements and therefore denotes a single known region.
func (r RPL) FullySpecified() bool {
	for _, e := range r.elems {
		if e.IsWildcard() || e.Kind == Param {
			return false
		}
	}
	return true
}

// HasWildcard reports whether the RPL contains * or [?].
func (r RPL) HasWildcard() bool { return !r.FullySpecified() }

// WildcardFreePrefixLen returns the length of the maximal wildcard-free
// prefix: the number of leading elements before the first * or [?].
func (r RPL) WildcardFreePrefixLen() int {
	for i, e := range r.elems {
		if e.IsWildcard() {
			return i
		}
	}
	return len(r.elems)
}

// WildcardFreePrefix returns the maximal wildcard-free prefix as an RPL.
func (r RPL) WildcardFreePrefix() RPL {
	n := r.WildcardFreePrefixLen()
	return RPL{elems: r.elems[:n:n]}
}

// Equal reports syntactic equality of two RPLs.
func (r RPL) Equal(s RPL) bool {
	if len(r.elems) != len(s.elems) {
		return false
	}
	for i := range r.elems {
		if r.elems[i] != s.elems[i] {
			return false
		}
	}
	return true
}

// Disjoint reports whether the region sets denoted by r and s do not
// overlap. Per §2.3.1: two fully specified RPLs are disjoint unless
// identical; RPLs with wildcards are disjoint if every pair of denoted
// regions is disjoint. The check compares element-by-element from the left
// until a * element is encountered in either RPL, then from the right
// (stopping short of consumed prefix elements), declaring the RPLs disjoint
// as soon as two corresponding non-* elements fail to overlap.
//
// Examples (paper §2.3.1): disjoint pairs — (A, A:B), (A:[i], A:B),
// (A:*:X, A:B); non-disjoint pairs — (A:*, A), (A:* , A:B:C), (A:*, A:[i]).
func (r RPL) Disjoint(s RPL) bool {
	// Interned fast path: both RPLs are fully specified (the interner
	// stamps nothing else), and two fully specified RPLs are disjoint
	// unless identical — which within one interner instance is exactly an
	// id compare.
	if r.iid != 0 && s.iid != 0 && sameInternInstance(r.iid, s.iid) {
		return r.iid != s.iid
	}
	a, b := r.elems, s.elems
	// Left scan until either has a *.
	i := 0
	for {
		aDone, bDone := i >= len(a), i >= len(b)
		if aDone && bDone {
			return false // identical fully-specified prefix paths
		}
		if aDone {
			// a is a proper prefix of b. They denote the same region only if
			// b's remainder can expand to the empty sequence, i.e. consists
			// solely of * elements (e.g. A vs A:* overlap, A vs A:B do not).
			return !allStar(b[i:])
		}
		if bDone {
			return !allStar(a[i:])
		}
		if a[i].Kind == Star || b[i].Kind == Star {
			break
		}
		if !overlapsElem(a[i], b[i]) {
			return true
		}
		i++
	}
	// Right scan over the remaining suffixes a[i:], b[i:].
	ja, jb := len(a)-1, len(b)-1
	for ja >= i && jb >= i {
		if a[ja].Kind == Star || b[jb].Kind == Star {
			return false // a * can absorb the rest; possible overlap
		}
		if !overlapsElem(a[ja], b[jb]) {
			return true
		}
		ja--
		jb--
	}
	// One suffix exhausted. If the other side's remaining middle consists
	// only of elements a * on the shorter side could match, overlap is
	// possible. At this point the element at position i on the exhausted
	// side (if any) was a *; conservatively report possible overlap unless
	// the exhausted side has no * at all — impossible here because the left
	// scan only stops at a *.
	return false
}

// isIdent reports whether s is a simple identifier.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// allStar reports whether every element of the slice is the * wildcard.
func allStar(elems []Elem) bool {
	for _, e := range elems {
		if e.Kind != Star {
			return false
		}
	}
	return true
}

// Overlaps is the negation of Disjoint.
func (r RPL) Overlaps(s RPL) bool { return !r.Disjoint(s) }

// Included reports r ⊆ s: every fully specified RPL denoted by r is also
// denoted by s. Wildcards in s act as patterns (* matches any element
// sequence, [?] any index); wildcards in r universally quantify, so an r
// wildcard can only be covered by a corresponding s wildcard.
func (r RPL) Included(s RPL) bool {
	// Interned fast path: both fully specified, so inclusion degenerates
	// to identity, an id compare within one interner instance.
	if r.iid != 0 && s.iid != 0 && sameInternInstance(r.iid, s.iid) {
		return r.iid == s.iid
	}
	return includedFrom(r.elems, s.elems)
}

func includedFrom(a, b []Elem) bool {
	// b empty: a must be empty too.
	if len(b) == 0 {
		return len(a) == 0
	}
	switch b[0].Kind {
	case Star:
		// b's * matches zero elements (skip it) or one+ (consume one of a).
		if includedFrom(a, b[1:]) {
			return true
		}
		if len(a) > 0 {
			// A leading * in a is a set of sequences; b's * absorbs any of
			// them, so consuming it wholesale is sound and complete here.
			return includedFrom(a[1:], b)
		}
		return false
	case AnyIndex:
		if len(a) == 0 {
			return false
		}
		// [?] in b covers any index-like element — a concrete index, [?],
		// or a parameter — but not a name or a * in a (a * denotes
		// multi-element sequences too).
		if a[0].Kind == Index || a[0].Kind == AnyIndex || a[0].Kind == Param {
			return includedFrom(a[1:], b[1:])
		}
		return false
	default: // Name or Index in b: a must begin with the identical element.
		if len(a) == 0 || a[0] != b[0] {
			return false
		}
		return includedFrom(a[1:], b[1:])
	}
}

// Under reports whether r is nested under s: r denotes only regions that lie
// in the subtree rooted at some region of s. Equivalently r ⊆ s:* (with s
// extended by a trailing *). This is the relation between an effect and the
// scheduler-tree subtree it can reach.
func (r RPL) Under(s RPL) bool {
	return includedFrom(r.elems, append(s.Elems(), Any))
}

// Compare gives a total order over RPLs (lexicographic over elements), used
// for deterministic iteration and consistent lock ordering.
func (r RPL) Compare(s RPL) int {
	a, b := r.elems, s.elems
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareElem(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func compareElem(a, b Elem) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case Name:
		return strings.Compare(a.Name, b.Name)
	case Index:
		switch {
		case a.Index < b.Index:
			return -1
		case a.Index > b.Index:
			return 1
		}
	}
	return 0
}
