package svc

import (
	"bufio"
	"bytes"
	"testing"
)

// serverConnOver returns a ServerConn whose read buffer holds exactly
// stream (preamble consumed), as if it had all arrived in one read.
func serverConnOver(t *testing.T, proto int, stream []byte) *ServerConn {
	t.Helper()
	pre := Preamble(proto)
	br := bufio.NewReaderSize(bytes.NewReader(append(pre[:], stream...)), 32<<10)
	sc, err := NewServerConn(br, bufio.NewWriter(&bytes.Buffer{}), NewEffectCache(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func frameV2(t *testing.T, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeFrameV2(w, payload); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return b.Bytes()
}

// TestRequestBuffered: the predicate the cluster router's flush rule
// rests on answers "a whole request frame is buffered" exactly — a
// complete registration or options frame is not a request, and a
// request cut short is not whole.
func TestRequestBuffered(t *testing.T) {
	eff := "writes Root:Shard:[0]:[1], writes Root:Session:[0]"
	reg := frameV2(t, appendRegEffectV2(nil, 0, eff))
	opts := frameV2(t, appendConnOptsV2(nil, 0))
	body, err := appendSubmitV2(nil, 1, OpPut, 1, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := frameV2(t, body)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v2 := []struct {
		name   string
		stream []byte
		want   bool
	}{
		{"empty", nil, false},
		{"register only", reg, false},
		{"register, options", cat(reg, opts), false},
		{"register, half submit", cat(reg, sub[:len(sub)/2]), false},
		{"submit missing its last byte", sub[:len(sub)-1], false},
		{"submit", sub, true},
		{"register, options, submit", cat(reg, opts, sub), true},
	}
	for _, tc := range v2 {
		if got := serverConnOver(t, ProtoV2, tc.stream).RequestBuffered(); got != tc.want {
			t.Errorf("v2 %s: RequestBuffered = %v, want %v", tc.name, got, tc.want)
		}
	}

	var b bytes.Buffer
	if err := WriteFrame(&b, &Request{ID: 1, Op: OpPut, Key: 1, Val: 7, Eff: eff}); err != nil {
		t.Fatal(err)
	}
	v1 := b.Bytes()
	for _, tc := range []struct {
		name   string
		stream []byte
		want   bool
	}{
		{"empty", nil, false},
		{"half prefix", v1[:2], false},
		{"frame missing its last byte", v1[:len(v1)-1], false},
		{"frame", v1, true},
	} {
		if got := serverConnOver(t, ProtoV1, tc.stream).RequestBuffered(); got != tc.want {
			t.Errorf("v1 %s: RequestBuffered = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Reading a request moves the predicate on to what follows it.
	sc := serverConnOver(t, ProtoV2, cat(reg, sub, sub[:3]))
	var req Request
	if !sc.RequestBuffered() {
		t.Fatal("first submit not seen as buffered")
	}
	if err := sc.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	if sc.RequestBuffered() {
		t.Fatal("a 3-byte tail seen as a whole request")
	}
}
