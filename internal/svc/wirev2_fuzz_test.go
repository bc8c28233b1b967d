package svc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"twe/internal/effect"
)

// fuzzTable builds the EffectTable the request-decode fuzzer resolves
// against: a few good slots and one poisoned slot, so submits can hit
// every lookup outcome.
func fuzzTable(tb testing.TB) *EffectTable {
	tb.Helper()
	var tbl EffectTable
	for ref := uint64(0); ref < 4; ref++ {
		set, err := effect.Parse(PutEffect(8, int(ref), 1))
		if err != nil {
			tb.Fatal(err)
		}
		if err := tbl.Register(ref, set, nil); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.Register(4, effect.Set{}, fmt.Errorf("poisoned")); err != nil {
		tb.Fatal(err)
	}
	return &tbl
}

// hostileSeeds are the malformed or rejectable frames the decode fuzzer
// starts from besides the golden frames: structural breakage, and the
// two-phase frames' hostile shapes (an unknown sub-op, an effect ref no
// register frame bound, a prepare smuggled into a batch).
func hostileSeeds() [][]byte {
	return [][]byte{
		{},
		{v2FrameBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},                       // huge batch count
		{v2FrameRegEffect, 0x00, 0xFF},                                     // string length beyond payload
		{v2FrameSubmit, 0x80},                                              // unterminated varint
		{v2FramePrepare, 0x01, 0x09, 0x00, 0x00, 0x00},                     // unknown sub-op code
		{v2FramePrepare, 0x01, v2OpScan, 0x00, 0x00, 0x07},                 // unregistered effect ref
		{v2FrameBatch, 0x01, v2FramePrepare, 0x01, 0x00, 0x00, 0x00, 0x00}, // prepare inside a batch
		{v2FrameCommit, 0x01},                                              // commit without a target
	}
}

// FuzzDecodeFrame throws adversarial payloads at both frame decoders.
// The properties: no panic ever; allocation stays bounded by the payload
// (a batch cannot declare more entries than it has bytes); and any
// response that decodes re-encodes canonically to an equal response.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range goldenFrames(f) {
		f.Add(fr.payload)
	}
	for _, seed := range hostileSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := fuzzTable(t)
		var req Request
		isReg, err := decodeRequestV2(data, tbl, effect.Parse, &req)
		if err == nil && !isReg && req.Op == OpBatch && len(req.Batch) > len(data) {
			t.Fatalf("batch of %d entries decoded from %d bytes", len(req.Batch), len(data))
		}
		if tbl.Len() > MaxEffectRefs {
			t.Fatalf("table grew to %d slots", tbl.Len())
		}

		var resp Response
		maxRefs, err := decodeResponseV2(data, &resp)
		if err != nil {
			return
		}
		// Decodable responses re-encode canonically: the re-encoding must
		// itself decode to an identical response. (Bytes may differ from
		// the input — varints accept non-minimal forms — but the canonical
		// encoding is a fixed point.)
		enc, err := appendResponseV2(nil, &resp, maxRefs)
		if err != nil {
			t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
		}
		var resp2 Response
		maxRefs2, err := decodeResponseV2(enc, &resp2)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v (% x)", err, enc)
		}
		if maxRefs2 != maxRefs || !reflect.DeepEqual(&resp, &resp2) {
			t.Fatalf("round trip drifted:\n first  %+v (maxRefs %d)\n second %+v (maxRefs %d)",
				resp, maxRefs, resp2, maxRefs2)
		}
		enc2, err := appendResponseV2(nil, &resp2, maxRefs2)
		if err != nil || string(enc2) != string(enc) {
			t.Fatalf("canonical encoding is not a fixed point (err=%v)", err)
		}
	})
}

// FuzzEffectTableOps drives the intern table with a byte script of
// register/overwrite/poison/lookup ops (refs span 0..65535, well past
// the bound) and cross-checks it against a map model.
func FuzzEffectTableOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0})             // register then lookup ref 0
	f.Add([]byte{0, 5, 0, 1, 5, 0, 2, 5, 0})    // register, poison, lookup ref 5
	f.Add([]byte{0, 0xFF, 0xFF, 2, 0xFF, 0xFF}) // out-of-range register + lookup
	f.Add([]byte{0, 0xFF, 0x03, 0, 0x00, 0x04}) // boundary refs 1023 and 1024

	set, err := effect.Parse(AddEffect(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var tbl EffectTable
		model := make(map[uint64]bool) // ref → poisoned
		var regs int64
		for i := 0; i+2 < len(script); i += 3 {
			ref := uint64(script[i+1]) | uint64(script[i+2])<<8
			switch script[i] % 3 {
			case 0, 1: // register (0 = good, 1 = poisoned)
				var perr error
				if script[i]%3 == 1 {
					perr = fmt.Errorf("poisoned")
				}
				err := tbl.Register(ref, set, perr)
				if ref >= MaxEffectRefs {
					if err == nil {
						t.Fatalf("out-of-range ref %d accepted", ref)
					}
					continue
				}
				if err != nil {
					t.Fatalf("in-range ref %d refused: %v", ref, err)
				}
				model[ref] = perr != nil
				regs++
			case 2: // lookup
				_, ok, perr := tbl.Lookup(ref)
				poisoned, registered := model[ref]
				if ok != registered || (perr != nil) != (ok && poisoned) {
					t.Fatalf("lookup(%d) = ok=%v err=%v, model registered=%v poisoned=%v",
						ref, ok, perr, registered, poisoned)
				}
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("Len() = %d, model has %d", tbl.Len(), len(model))
		}
		if tbl.Len() > MaxEffectRefs {
			t.Fatalf("table exceeded bound: %d", tbl.Len())
		}
		if tbl.Registrations() != regs {
			t.Fatalf("Registrations() = %d, model counted %d", tbl.Registrations(), regs)
		}
	})
}

// TestRegenFuzzCorpus pins the in-code fuzz seeds as corpus files under
// testdata/fuzz/, where go test replays them as regression cases on
// every ordinary run. TWE_REGEN=1 rewrites them.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("TWE_REGEN") == "" {
		// Not regenerating: assert the pinned corpus exists and is not
		// empty, so a clean checkout really runs the regression seeds.
		for _, dir := range []string{"FuzzDecodeFrame", "FuzzEffectTableOps"} {
			ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", dir))
			if err != nil || len(ents) == 0 {
				t.Fatalf("pinned fuzz corpus missing for %s (TWE_REGEN=1 regenerates): %v", dir, err)
			}
		}
		return
	}

	write := func(fuzzName string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("pinned %d seeds under %s", len(seeds), dir)
	}

	var decodeSeeds [][]byte
	for _, fr := range goldenFrames(t) {
		decodeSeeds = append(decodeSeeds, fr.payload)
	}
	decodeSeeds = append(decodeSeeds, hostileSeeds()...)
	write("FuzzDecodeFrame", decodeSeeds)
	write("FuzzEffectTableOps", [][]byte{
		{},
		{0, 0, 0, 2, 0, 0},
		{0, 5, 0, 1, 5, 0, 2, 5, 0},
		{0, 0xFF, 0xFF, 2, 0xFF, 0xFF},
		{0, 0xFF, 0x03, 0, 0x00, 0x04},
	})
}

// TestV2PrepareHostile: the two-phase frames' hostile shapes are refused
// without a panic. An unknown sub-op, a prepare inside a batch and a
// truncated commit are malformed frames, fatal to the connection like any
// other; a prepare naming an unregistered effect ref is well formed and
// is rejected per request, as a submit naming one is.
func TestV2PrepareHostile(t *testing.T) {
	tbl := fuzzTable(t)
	seeds := hostileSeeds()
	for _, bad := range [][]byte{seeds[4], seeds[6], seeds[7]} {
		var req Request
		if _, err := decodeRequestV2(bad, tbl, effect.Parse, &req); err == nil {
			t.Errorf("% x decoded to %+v, want a frame error", bad, req)
		}
	}
	var req Request
	if _, err := decodeRequestV2(seeds[5], tbl, effect.Parse, &req); err != nil {
		t.Fatalf("unregistered-ref prepare: frame error %v, want a per-request rejection", err)
	}
	if req.Op != OpPrepare || req.Sub != OpScan || req.wireErr == nil || req.hasResolved {
		t.Fatalf("unregistered-ref prepare decoded to %+v", req)
	}

	// Live: the member answers the unregistered-ref prepare rejected and
	// keeps serving the connection.
	s := startTestServer(t, Config{})
	defer drainClean(t, s)
	c, err := DialProto(s.Addr(), ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeFrameV2(c.bw, seeds[5]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Recv()
	if err != nil || resp.ID != 1 || resp.Status != StatusRejected {
		t.Fatalf("unregistered-ref prepare: %+v, %v; want rejected", resp, err)
	}
	if resp, err := c.Put(1, 5); err != nil || resp.Status != StatusOK {
		t.Fatalf("put after the rejected prepare: %+v, %v", resp, err)
	}
}
