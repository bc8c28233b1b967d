package svc

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twe/internal/effect"
)

// goldenPath is the byte-level fixture file for every v2 frame kind.
// Regenerate with TWE_REGEN=1 go test ./internal/svc -run TestV2GoldenFrames
// — but only on a deliberate wire-format change: a diff in this file IS
// a protocol break.
const goldenPath = "testdata/v2_frames.golden"

type goldenFrame struct {
	name    string
	payload []byte
}

// goldenStats is a StatsBody with every numeric field distinct, so a
// swapped pair in the fixed wire order cannot cancel out.
func goldenStats() *StatsBody {
	return &StatsBody{
		Sched: "tree", Shards: 8, Keys: 256,
		Sessions: 1, ConnsAccepted: 2, Disconnects: 3,
		Requests: 4, Served: 5, Shed: 6, Busy: 7, Cancelled: 8, Rejected: 9, Errors: 10,
		ControlOps: 11, Batches: 12, BatchedOps: 13,
		EffHits: 14, EffMisses: 15, Inflight: 16, InflightPeak: 17,
		V1Conns: 18, V2Conns: 19, EffRegs: 20,
	}
}

// goldenFrames enumerates one canonical encoding per frame kind (plus
// the two preambles). Deterministic inputs only: the effect strings are
// the canonical client-helper forms.
func goldenFrames(t testing.TB) []goldenFrame {
	t.Helper()
	preV1, preV2 := Preamble(ProtoV1), Preamble(ProtoV2)
	submitPut, err := appendSubmitV2(nil, 7, OpPut, 42, -5, 3)
	if err != nil {
		t.Fatal(err)
	}
	submitGet, err := appendSubmitV2(nil, 8, OpGet, 1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	submitScan, err := appendSubmitV2(nil, 9, OpScan, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	submitAdd, err := appendSubmitV2(nil, 10, OpAdd, 300, 123456789, 6)
	if err != nil {
		t.Fatal(err)
	}
	prepareScan, err := appendPrepareV2(nil, 1<<63|1, OpScan, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	prepareHold, err := appendPrepareV2(nil, 1<<63|2, "", 42, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := appendBatchHeaderV2(nil, 3)
	batch = append(batch, submitPut...)
	batch = append(batch, appendTargetV2(nil, v2FrameCancel, 13, 7)...)
	batch = append(batch, appendStatsReqV2(nil, 14)...)

	return []goldenFrame{
		{"preamble_v1", preV1[:]},
		{"preamble_v2", preV2[:]},
		{"reg_effect", appendRegEffectV2(nil, 3, PutEffect(8, 42, 3))},
		{"submit_put", submitPut},
		{"submit_get", submitGet},
		{"submit_scan", submitScan},
		{"submit_add", submitAdd},
		{"cancel", appendTargetV2(nil, v2FrameCancel, 11, 7)},
		{"stats_req", appendStatsReqV2(nil, 12)},
		{"batch", batch},
		{"prepare_scan", prepareScan},
		{"prepare_hold", prepareHold},
		{"commit", appendTargetV2(nil, v2FrameCommit, 1<<63|3, 1<<63|1)},
		{"abort", appendTargetV2(nil, v2FrameAbort, 1<<63|4, 1<<63|2)},
		{"hello", appendHelloV2(nil, 5, 8, 256, MaxEffectRefs, "tree")},
		{"result_ok", appendResultV2(nil, 7, v2StatusOK, 99, "")},
		{"result_shed", appendResultV2(nil, 8, v2StatusShed, 0, "deadline")},
		{"result_busy", appendResultV2(nil, 9, v2StatusBusy, 0, "server at max-inflight")},
		{"result_cancelled", appendResultV2(nil, 10, v2StatusCancelled, 0, "")},
		{"result_rejected", appendResultV2(nil, 5, v2StatusRejected, 0, "declared effect does not cover required")},
		{"result_error", appendResultV2(nil, 11, v2StatusError, 0, "task panic")},
		{"result_prepared", appendResultV2(nil, 1<<63|1, v2StatusPrepared, 0, "")},
		{"stats_resp", appendStatsRespV2(nil, 12, goldenStats())},
	}
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (TWE_REGEN=1 regenerates): %v", err)
	}
	frames := make(map[string][]byte)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s:%d: malformed line %q", goldenPath, ln+1, line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s:%d: %v", goldenPath, ln+1, err)
		}
		frames[name] = b
	}
	return frames
}

// TestV2GoldenFrames pins the exact bytes of every v2 frame kind.
func TestV2GoldenFrames(t *testing.T) {
	frames := goldenFrames(t)

	if os.Getenv("TWE_REGEN") != "" {
		var buf bytes.Buffer
		buf.WriteString("# v2 wire-format golden frames (frame payloads, no length prefix).\n")
		buf.WriteString("# A diff here is a protocol break. Regenerate deliberately with:\n")
		buf.WriteString("#   TWE_REGEN=1 go test ./internal/svc -run TestV2GoldenFrames\n")
		for _, fr := range frames {
			fmt.Fprintf(&buf, "%s %s\n", fr.name, hex.EncodeToString(fr.payload))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d frames)", goldenPath, len(frames))
		return
	}

	want := readGolden(t)
	seen := make(map[string]bool)
	for _, fr := range frames {
		seen[fr.name] = true
		g, ok := want[fr.name]
		if !ok {
			t.Errorf("%s: missing from golden file", fr.name)
			continue
		}
		if !bytes.Equal(fr.payload, g) {
			t.Errorf("%s: encoding changed\n got  %x\n want %x", fr.name, fr.payload, g)
		}
	}
	var stale []string
	for name := range want {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("golden file has stale frames: %v", stale)
	}
}

// TestV2GoldenDecode decodes the pinned bytes (not the freshly encoded
// ones) and checks the decoded fields, so decode compatibility with
// historical frames is tested independently of the encoders.
func TestV2GoldenDecode(t *testing.T) {
	if os.Getenv("TWE_REGEN") != "" {
		t.Skip("regenerating")
	}
	g := readGolden(t)
	var tbl EffectTable
	for ref := uint64(3); ref <= 6; ref++ {
		set, err := effect.Parse(PutEffect(8, 42, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Register(ref, set, nil); err != nil {
			t.Fatal(err)
		}
	}
	decodeReq := func(name string) *Request {
		t.Helper()
		var req Request
		isReg, err := decodeRequestV2(g[name], &tbl, effect.Parse, &req)
		if err != nil || isReg {
			t.Fatalf("%s: decode: isReg=%v err=%v", name, isReg, err)
		}
		return &req
	}

	if req := decodeReq("submit_put"); req.ID != 7 || req.Op != OpPut || req.Key != 42 || req.Val != -5 || !req.hasResolved {
		t.Fatalf("submit_put decoded to %+v", req)
	}
	if req := decodeReq("submit_get"); req.ID != 8 || req.Op != OpGet || req.Key != 1 {
		t.Fatalf("submit_get decoded to %+v", req)
	}
	if req := decodeReq("submit_scan"); req.ID != 9 || req.Op != OpScan {
		t.Fatalf("submit_scan decoded to %+v", req)
	}
	if req := decodeReq("submit_add"); req.ID != 10 || req.Op != OpAdd || req.Key != 300 || req.Val != 123456789 {
		t.Fatalf("submit_add decoded to %+v", req)
	}
	if req := decodeReq("cancel"); req.ID != 11 || req.Op != OpCancel || req.Target != 7 {
		t.Fatalf("cancel decoded to %+v", req)
	}
	if req := decodeReq("stats_req"); req.ID != 12 || req.Op != OpStats {
		t.Fatalf("stats_req decoded to %+v", req)
	}
	if req := decodeReq("batch"); req.Op != OpBatch || len(req.Batch) != 3 ||
		req.Batch[0].Op != OpPut || req.Batch[1].Op != OpCancel || req.Batch[2].Op != OpStats {
		t.Fatalf("batch decoded to %+v", req)
	}

	if req := decodeReq("prepare_scan"); req.ID != 1<<63|1 || req.Op != OpPrepare || req.Sub != OpScan || !req.hasResolved {
		t.Fatalf("prepare_scan decoded to %+v", req)
	}
	if req := decodeReq("prepare_hold"); req.ID != 1<<63|2 || req.Op != OpPrepare || req.Sub != "" ||
		req.Key != 42 || req.Val != 7 || !req.hasResolved {
		t.Fatalf("prepare_hold decoded to %+v", req)
	}
	if req := decodeReq("commit"); req.ID != 1<<63|3 || req.Op != OpCommit || req.Target != 1<<63|1 {
		t.Fatalf("commit decoded to %+v", req)
	}
	if req := decodeReq("abort"); req.ID != 1<<63|4 || req.Op != OpAbort || req.Target != 1<<63|2 {
		t.Fatalf("abort decoded to %+v", req)
	}

	// Register frame: applies to the table rather than producing a request.
	var req Request
	isReg, err := decodeRequestV2(g["reg_effect"], &tbl, effect.Parse, &req)
	if !isReg || err != nil {
		t.Fatalf("reg_effect: isReg=%v err=%v", isReg, err)
	}
	if _, ok, perr := tbl.Lookup(3); !ok || perr != nil {
		t.Fatal("reg_effect did not (re)bind ref 3")
	}

	// Server frames.
	var hello Response
	maxRefs, err := decodeResponseV2(g["hello"], &hello)
	if err != nil || hello.Status != StatusHello || hello.Val != 5 || maxRefs != MaxEffectRefs ||
		hello.Stats == nil || hello.Stats.Sched != "tree" || hello.Stats.Shards != 8 || hello.Stats.Keys != 256 {
		t.Fatalf("hello decoded to %+v (maxRefs=%d, err=%v)", hello, maxRefs, err)
	}
	var res Response
	if _, err := decodeResponseV2(g["result_rejected"], &res); err != nil ||
		res.ID != 5 || res.Status != StatusRejected || res.Err != "declared effect does not cover required" {
		t.Fatalf("result_rejected decoded to %+v (err=%v)", res, err)
	}
	var stats Response
	if _, err := decodeResponseV2(g["stats_resp"], &stats); err != nil || stats.Stats == nil {
		t.Fatalf("stats_resp decode: %v", err)
	}
	if !reflect.DeepEqual(stats.Stats, goldenStats()) {
		t.Fatalf("stats_resp decoded to %+v, want %+v", stats.Stats, goldenStats())
	}

	// Round trip: every server frame re-encodes byte-identically.
	for _, name := range []string{"hello", "result_ok", "result_shed", "result_busy",
		"result_cancelled", "result_rejected", "result_error", "result_prepared", "stats_resp"} {
		var resp Response
		mr, err := decodeResponseV2(g[name], &resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := appendResponseV2(nil, &resp, mr)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(enc, g[name]) {
			t.Fatalf("%s: re-encode not canonical\n got  %x\n want %x", name, enc, g[name])
		}
	}
}
