// Wire protocol v2: negotiated binary framing with per-connection
// effect interning (DESIGN.md §13).
//
// Both protocol versions start with the same 4-byte client preamble:
// the ASCII magic "TWE" followed by a version byte (1 or 2). The server
// reads the preamble, picks the codec, and answers with a hello frame in
// the negotiated encoding; everything after the preamble is
// codec-specific framing over the same session/admission state machine,
// so v1 (length-prefixed JSON, wire.go) remains the debug/compat codec
// with byte-for-byte identical observable semantics.
//
// v2 framing: each frame is a uvarint payload length (≤ MaxFrame)
// followed by the payload. The first payload byte is a numeric frame op;
// all integers are unsigned varints except values, which are zigzag
// varints; strings are a uvarint length followed by raw bytes. Trailing
// bytes after a well-formed body are a protocol error — every frame
// decodes to exactly one canonical encoding, which is what makes the
// golden-frame and fuzz round-trip tests exact.
//
// The hot-path win is effect interning: a v2 client registers each
// distinct declared-effect string once (frameRegEffect carries a
// client-chosen slot and the textual effect.Set form; the server parses
// it once into its per-connection EffectTable) and every steady-state
// submit then carries only the small integer slot. The server resolves
// it with an array index — no JSON, no string hashing, no EffectCache —
// while admission still runs on the exact same parsed effect.Set a v1
// request would produce.
package svc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"twe/internal/effect"
)

// Protocol versions carried in the preamble's version byte.
const (
	ProtoV1 = 1 // length-prefixed JSON (wire.go); debug/compat codec
	ProtoV2 = 2 // binary varint frames + effect interning (this file)
)

// preambleMagic is the first three bytes every client sends.
var preambleMagic = [3]byte{'T', 'W', 'E'}

// Preamble returns the 4-byte connection preamble for a protocol version.
func Preamble(proto int) [4]byte {
	return [4]byte{preambleMagic[0], preambleMagic[1], preambleMagic[2], byte(proto)}
}

// MaxEffectRefs bounds the per-connection effect-id table: a register
// frame naming a slot ≥ MaxEffectRefs is a protocol error, so a hostile
// client cannot grow server state without bound. Re-registering an
// occupied slot overwrites it (client-driven eviction).
const MaxEffectRefs = 1024

// v2 frame ops, client → server.
const (
	v2FrameSubmit    = 0x01 // id, dataOp, key, val, effRef [, trace if negotiated]
	v2FrameBatch     = 0x02 // count, then count inner client frames (no outer id)
	v2FrameCancel    = 0x03 // id, target
	v2FrameStats     = 0x04 // id
	v2FrameRegEffect = 0x05 // ref, effect string; fire-and-forget (errors are connection-fatal)
	v2FrameConnOpts  = 0x06 // flags uvarint; fire-and-forget (unknown flags are connection-fatal)
	v2FramePrepare   = 0x07 // id, subOp (0 = pure hold), key, val, effRef
	v2FrameCommit    = 0x08 // id, target (the prepare's id)
	v2FrameAbort     = 0x09 // id, target (the prepare's id)
)

// Connection-option flags carried by a v2FrameConnOpts frame. Options are
// sticky for the rest of the connection; a connection that never sends
// the frame pays zero wire bytes for any of them.
const (
	// v2OptTraceIDs: every subsequent submit frame (including batch inner
	// submits) carries one trailing trace-id uvarint after the effect ref
	// (DESIGN.md §14).
	v2OptTraceIDs = 1 << 0

	v2OptKnown = v2OptTraceIDs // mask of flags this server understands
)

// v2ConnState is the per-connection negotiated decode state, owned by the
// reader goroutine.
type v2ConnState struct {
	traceIDs bool
}

// v2 frame ops, server → client.
const (
	v2FrameHello     = 0x10 // proto, sid, shards, keys, maxRefs, sched string
	v2FrameResult    = 0x11 // id, status, val, err string
	v2FrameStatsResp = 0x12 // id, StatsBody fields (fixed order, see appendStatsBodyV2)
)

// v2 data-op codes inside a submit frame.
const (
	v2OpPut  = 0x01
	v2OpGet  = 0x02
	v2OpScan = 0x03
	v2OpAdd  = 0x04
)

// v2 status codes inside a result frame.
const (
	v2StatusOK        = 0x01
	v2StatusShed      = 0x02
	v2StatusBusy      = 0x03
	v2StatusCancelled = 0x04
	v2StatusRejected  = 0x05
	v2StatusError     = 0x06
	v2StatusPrepared  = 0x07
)

// maxWireKey bounds key/geometry varints so a decoded value always fits
// an int on every platform; anything larger is malformed, not a wrapped
// negative the range check downstream would misclassify.
const maxWireKey = math.MaxInt32

func v2OpCode(op string) (byte, bool) {
	switch op {
	case OpPut:
		return v2OpPut, true
	case OpGet:
		return v2OpGet, true
	case OpScan:
		return v2OpScan, true
	case OpAdd:
		return v2OpAdd, true
	}
	return 0, false
}

func v2OpString(code byte) (string, bool) {
	switch code {
	case v2OpPut:
		return OpPut, true
	case v2OpGet:
		return OpGet, true
	case v2OpScan:
		return OpScan, true
	case v2OpAdd:
		return OpAdd, true
	}
	return "", false
}

func v2StatusCode(status string) (byte, bool) {
	switch status {
	case StatusOK:
		return v2StatusOK, true
	case StatusShed:
		return v2StatusShed, true
	case StatusBusy:
		return v2StatusBusy, true
	case StatusCancelled:
		return v2StatusCancelled, true
	case StatusRejected:
		return v2StatusRejected, true
	case StatusError:
		return v2StatusError, true
	case StatusPrepared:
		return v2StatusPrepared, true
	}
	return 0, false
}

func v2StatusString(code byte) (string, bool) {
	switch code {
	case v2StatusOK:
		return StatusOK, true
	case v2StatusShed:
		return StatusShed, true
	case v2StatusBusy:
		return StatusBusy, true
	case v2StatusCancelled:
		return StatusCancelled, true
	case v2StatusRejected:
		return StatusRejected, true
	case v2StatusError:
		return StatusError, true
	case v2StatusPrepared:
		return StatusPrepared, true
	}
	return "", false
}

// writeFrameV2 writes one uvarint-length-prefixed frame.
func writeFrameV2(w *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("svc: frame too large (%d > %d)", len(payload), MaxFrame)
	}
	// The length prefix is encoded straight into the writer's free
	// buffer: a local array handed to Write would escape to the heap.
	if _, err := w.Write(binary.AppendUvarint(w.AvailableBuffer(), uint64(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameV2 reads one frame payload into *buf (grown as needed and
// reused across calls, so the steady state performs no allocations). The
// declared length is validated against MaxFrame before any allocation.
func readFrameV2(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("svc: frame too large (%d > %d)", n, MaxFrame)
	}
	if uint64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// v2cur is a bounds-checked decode cursor. Every read validates against
// the remaining payload and latches bad on the first malformed field, so
// decoders are panic-free by construction on adversarial input
// (FuzzDecodeFrame exercises exactly this property).
type v2cur struct {
	b   []byte
	off int
	bad bool
}

func (c *v2cur) u8() byte {
	if c.bad || c.off >= len(c.b) {
		c.bad = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *v2cur) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

func (c *v2cur) varint() int64 {
	if c.bad {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

// bytes reads a length-prefixed byte string as a subslice of the payload
// (no copy). A declared length beyond the remaining payload is malformed,
// so a frame can never make the decoder allocate past its own size.
func (c *v2cur) bytes() []byte {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)-c.off) {
		c.bad = true
		return nil
	}
	v := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return v
}

// key reads a uvarint bounded to fit int (see maxWireKey).
func (c *v2cur) key() int {
	v := c.uvarint()
	if v > maxWireKey {
		c.bad = true
		return 0
	}
	return int(v)
}

// done reports a fully-consumed, well-formed payload.
func (c *v2cur) done() bool { return !c.bad && c.off == len(c.b) }

// --- client-frame encoding -------------------------------------------------

// appendSubmitV2 encodes one data-op frame body (also used as a batch
// inner entry).
func appendSubmitV2(dst []byte, id uint64, op string, key int, val int64, ref uint32) ([]byte, error) {
	code, ok := v2OpCode(op)
	if !ok {
		return dst, fmt.Errorf("svc: op %q not encodable in protocol v2", op)
	}
	dst = append(dst, v2FrameSubmit)
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, uint64(key))
	dst = binary.AppendVarint(dst, val)
	dst = binary.AppendUvarint(dst, uint64(ref))
	return dst, nil
}

// appendPrepareV2 encodes one two-phase prepare frame (DESIGN.md §16):
// sub is the inner data op a commit runs, or "" for a pure hold.
func appendPrepareV2(dst []byte, id uint64, sub string, key int, val int64, ref uint32) ([]byte, error) {
	var code byte
	if sub != "" {
		var ok bool
		if code, ok = v2OpCode(sub); !ok {
			return dst, fmt.Errorf("svc: prepare sub-op %q not encodable in protocol v2", sub)
		}
	}
	dst = append(dst, v2FramePrepare)
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, uint64(key))
	dst = binary.AppendVarint(dst, val)
	dst = binary.AppendUvarint(dst, uint64(ref))
	return dst, nil
}

// appendTargetV2 encodes a frame naming another request: a cancel of
// target, or a commit or abort of the hold prepared under id target.
func appendTargetV2(dst []byte, frame byte, id, target uint64) []byte {
	dst = append(dst, frame)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, target)
	return dst
}

func appendStatsReqV2(dst []byte, id uint64) []byte {
	dst = append(dst, v2FrameStats)
	dst = binary.AppendUvarint(dst, id)
	return dst
}

func appendRegEffectV2(dst []byte, ref uint32, eff string) []byte {
	dst = append(dst, v2FrameRegEffect)
	dst = binary.AppendUvarint(dst, uint64(ref))
	dst = binary.AppendUvarint(dst, uint64(len(eff)))
	dst = append(dst, eff...)
	return dst
}

// appendBatchHeaderV2 starts a batch frame; the caller appends count
// inner client frames (submit/cancel/stats bodies) after it.
func appendBatchHeaderV2(dst []byte, count int) []byte {
	dst = append(dst, v2FrameBatch)
	dst = binary.AppendUvarint(dst, uint64(count))
	return dst
}

// appendConnOptsV2 encodes a connection-options frame.
func appendConnOptsV2(dst []byte, flags uint64) []byte {
	dst = append(dst, v2FrameConnOpts)
	dst = binary.AppendUvarint(dst, flags)
	return dst
}

// --- client-frame decoding (server side) -----------------------------------

// errUnknownEffectRef marks a submit naming an unregistered table slot.
// It is a per-request admission rejection (the frame itself is well
// formed), mirroring v1's per-request "bad effect" rejection.
type unknownRefError uint64

func (e unknownRefError) Error() string {
	return fmt.Sprintf("unknown effect ref %d (not registered on this connection)", uint64(e))
}

// decodeRequestV2 decodes one client frame. Register frames are applied
// to tbl through parse and report isReg=true with no request produced.
// A malformed frame returns an error and is connection-fatal, exactly as
// a JSON unmarshal failure is on the v1 codec; a well-formed submit
// naming an unknown effect ref instead sets req.wireErr so admission
// rejects that one request. On success for data ops, req carries the
// resolved declared effect (req.hasResolved) so the session bypasses
// EffectCache entirely.
func decodeRequestV2(payload []byte, tbl *EffectTable, parse func(string) (effect.Set, error), req *Request) (isReg bool, err error) {
	var st v2ConnState
	kind, err := decodeRequestV2Conn(payload, tbl, parse, req, &st)
	return kind == v2ConsumedReg, err
}

// v2Consumed classifies frames the codec consumes without producing a
// request: effect registrations and connection options.
type v2Consumed int

const (
	v2ConsumedNone v2Consumed = iota // req holds a decoded request
	v2ConsumedReg                    // register-effect frame, applied to tbl
	v2ConsumedOpts                   // connection-options frame, applied to st
)

// decodeRequestV2Conn is decodeRequestV2 with explicit per-connection
// negotiated state: a connection-options frame mutates st, and submit
// frames are decoded under st's options (trailing trace id when
// negotiated).
func decodeRequestV2Conn(payload []byte, tbl *EffectTable, parse func(string) (effect.Set, error), req *Request, st *v2ConnState) (v2Consumed, error) {
	cur := v2cur{b: payload}
	op := cur.u8()
	if op == v2FrameRegEffect {
		ref := cur.uvarint()
		eff := cur.bytes()
		if !cur.done() {
			return v2ConsumedNone, fmt.Errorf("svc: malformed v2 register-effect frame")
		}
		// A parse failure poisons the slot instead of killing the
		// connection: v1 rejects each request carrying an unparseable
		// effect string per-request, and the interned path must observe
		// the same boundary.
		set, perr := parse(string(eff))
		return v2ConsumedReg, tbl.Register(ref, set, perr)
	}
	if op == v2FrameConnOpts {
		flags := cur.uvarint()
		if !cur.done() {
			return v2ConsumedNone, fmt.Errorf("svc: malformed v2 connection-options frame")
		}
		if flags&^uint64(v2OptKnown) != 0 {
			// Unknown options are connection-fatal, not silently ignored: a
			// client that negotiated an option the server drops would send
			// frames the server misparses.
			return v2ConsumedNone, fmt.Errorf("svc: unknown v2 connection-option flags %#x", flags&^uint64(v2OptKnown))
		}
		st.traceIDs = flags&v2OptTraceIDs != 0
		return v2ConsumedOpts, nil
	}
	if err := decodeClientFrameV2(&cur, op, tbl, req, false, st); err != nil {
		return v2ConsumedNone, err
	}
	if !cur.done() {
		return v2ConsumedNone, fmt.Errorf("svc: trailing bytes in v2 frame op 0x%02x", op)
	}
	return v2ConsumedNone, nil
}

// decodeClientFrameV2 decodes the body of one submit/batch/cancel/stats
// frame into req. inner marks batch entries, where a nested batch is
// decoded only far enough (its id) for the session to reject it. st
// carries the connection's negotiated options (trailing trace id on
// submits).
func decodeClientFrameV2(cur *v2cur, op byte, tbl *EffectTable, req *Request, inner bool, st *v2ConnState) error {
	*req = Request{}
	switch op {
	case v2FrameSubmit:
		req.ID = cur.uvarint()
		code := cur.u8()
		req.Key = cur.key()
		req.Val = cur.varint()
		ref := cur.uvarint()
		if st.traceIDs {
			req.Trace = cur.uvarint()
		}
		if cur.bad {
			return fmt.Errorf("svc: malformed v2 submit frame")
		}
		opStr, ok := v2OpString(code)
		if !ok {
			return fmt.Errorf("svc: unknown v2 data-op code 0x%02x", code)
		}
		req.Op = opStr
		resolveRef(tbl, ref, req)
		return nil

	case v2FramePrepare:
		req.Op = OpPrepare
		req.ID = cur.uvarint()
		code := cur.u8()
		req.Key = cur.key()
		req.Val = cur.varint()
		ref := cur.uvarint()
		if cur.bad {
			return fmt.Errorf("svc: malformed v2 prepare frame")
		}
		if code != 0 {
			sub, ok := v2OpString(code)
			if !ok {
				return fmt.Errorf("svc: unknown v2 prepare sub-op code 0x%02x", code)
			}
			req.Sub = sub
		}
		resolveRef(tbl, ref, req)
		return nil

	case v2FrameCancel, v2FrameCommit, v2FrameAbort:
		switch op {
		case v2FrameCancel:
			req.Op = OpCancel
		case v2FrameCommit:
			req.Op = OpCommit
		default:
			req.Op = OpAbort
		}
		req.ID = cur.uvarint()
		req.Target = cur.uvarint()
		if cur.bad {
			return fmt.Errorf("svc: malformed v2 %s frame", req.Op)
		}
		return nil

	case v2FrameStats:
		req.Op = OpStats
		req.ID = cur.uvarint()
		if cur.bad {
			return fmt.Errorf("svc: malformed v2 stats frame")
		}
		return nil

	case v2FrameBatch:
		if inner {
			// A nested batch entry carries only its id; it exists so the
			// session can answer with the same per-request "nested batch"
			// rejection v1 gives, instead of dropping the connection.
			req.Op = OpBatch
			req.ID = cur.uvarint()
			if cur.bad {
				return fmt.Errorf("svc: malformed v2 nested-batch entry")
			}
			return nil
		}
		count := cur.uvarint()
		if cur.bad {
			return fmt.Errorf("svc: malformed v2 batch frame")
		}
		// Each inner entry is at least one byte, so count beyond the
		// remaining payload is malformed — allocation stays bounded by
		// the (MaxFrame-capped) frame size.
		if count > uint64(len(cur.b)-cur.off) {
			return fmt.Errorf("svc: v2 batch declares %d entries in %d bytes", count, len(cur.b)-cur.off)
		}
		req.Op = OpBatch
		req.Batch = make([]Request, count)
		for i := range req.Batch {
			innerOp := cur.u8()
			if cur.bad {
				return fmt.Errorf("svc: truncated v2 batch frame")
			}
			switch innerOp {
			// Registrations and options act on the connection, and a
			// two-phase frame answers to its round, not to a batch.
			case v2FrameRegEffect, v2FrameConnOpts, v2FramePrepare, v2FrameCommit, v2FrameAbort:
				return fmt.Errorf("svc: frame op 0x%02x not allowed inside a v2 batch frame", innerOp)
			}
			if err := decodeClientFrameV2(cur, innerOp, tbl, &req.Batch[i], true, st); err != nil {
				return err
			}
		}
		return nil

	default:
		return fmt.Errorf("svc: unknown v2 frame op 0x%02x", op)
	}
}

// resolveRef binds a submit or prepare frame's effect ref through the
// connection's table: a resolved set on success, or a per-request
// rejection (req.wireErr) for an unregistered or poisoned slot.
func resolveRef(tbl *EffectTable, ref uint64, req *Request) {
	set, ok, perr := tbl.Lookup(ref)
	switch {
	case !ok:
		req.wireErr = unknownRefError(ref)
	case perr != nil:
		req.wireErr = fmt.Errorf("bad effect: %v", perr)
	default:
		req.resolved = set
		req.hasResolved = true
		req.effRef = uint32(ref)
		req.hasEffRef = true
	}
}

// --- server-frame encoding -------------------------------------------------

// appendHelloV2 encodes the server hello.
func appendHelloV2(dst []byte, sid int, shards, keys, maxRefs int, sched string) []byte {
	dst = append(dst, v2FrameHello, ProtoV2)
	dst = binary.AppendUvarint(dst, uint64(sid))
	dst = binary.AppendUvarint(dst, uint64(shards))
	dst = binary.AppendUvarint(dst, uint64(keys))
	dst = binary.AppendUvarint(dst, uint64(maxRefs))
	dst = binary.AppendUvarint(dst, uint64(len(sched)))
	dst = append(dst, sched...)
	return dst
}

// appendResultV2 encodes one result frame.
func appendResultV2(dst []byte, id uint64, status byte, val int64, errStr string) []byte {
	dst = append(dst, v2FrameResult)
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, status)
	dst = binary.AppendVarint(dst, val)
	dst = binary.AppendUvarint(dst, uint64(len(errStr)))
	dst = append(dst, errStr...)
	return dst
}

// statsBodyV2Fields flattens the numeric StatsBody counters in the fixed
// wire order (changing this order is a wire-format break; the golden
// frames pin it).
func statsBodyV2Fields(st *StatsBody) [20]int64 {
	return [20]int64{
		st.Sessions, st.ConnsAccepted, st.Disconnects,
		st.Requests, st.Served, st.Shed, st.Busy, st.Cancelled, st.Rejected, st.Errors,
		st.ControlOps, st.Batches, st.BatchedOps,
		st.EffHits, st.EffMisses, st.Inflight, st.InflightPeak,
		st.V1Conns, st.V2Conns, st.EffRegs,
	}
}

func setStatsBodyV2Fields(st *StatsBody, f [20]int64) {
	st.Sessions, st.ConnsAccepted, st.Disconnects = f[0], f[1], f[2]
	st.Requests, st.Served, st.Shed, st.Busy, st.Cancelled, st.Rejected, st.Errors = f[3], f[4], f[5], f[6], f[7], f[8], f[9]
	st.ControlOps, st.Batches, st.BatchedOps = f[10], f[11], f[12]
	st.EffHits, st.EffMisses, st.Inflight, st.InflightPeak = f[13], f[14], f[15], f[16]
	st.V1Conns, st.V2Conns, st.EffRegs = f[17], f[18], f[19]
}

// appendStatsRespV2 encodes one stats response frame.
func appendStatsRespV2(dst []byte, id uint64, st *StatsBody) []byte {
	dst = append(dst, v2FrameStatsResp)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(st.Sched)))
	dst = append(dst, st.Sched...)
	dst = binary.AppendUvarint(dst, uint64(st.Shards))
	dst = binary.AppendUvarint(dst, uint64(st.Keys))
	for _, v := range statsBodyV2Fields(st) {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// appendResponseV2 encodes a Response in the v2 framing: hello and stats
// responses get their dedicated frame ops, everything else is a result.
func appendResponseV2(dst []byte, resp *Response, maxRefs int) ([]byte, error) {
	if resp.Status == StatusHello {
		geo := resp.Stats
		if geo == nil {
			return dst, fmt.Errorf("svc: hello response without geometry")
		}
		return appendHelloV2(dst, int(resp.Val), geo.Shards, geo.Keys, maxRefs, geo.Sched), nil
	}
	if resp.Stats != nil {
		return appendStatsRespV2(dst, resp.ID, resp.Stats), nil
	}
	code, ok := v2StatusCode(resp.Status)
	if !ok {
		return dst, fmt.Errorf("svc: status %q not encodable in protocol v2", resp.Status)
	}
	return appendResultV2(dst, resp.ID, code, resp.Val, resp.Err), nil
}

// --- server-frame decoding (client side) -----------------------------------

// decodeResponseV2 decodes one server frame into resp. For hello frames
// maxRefs reports the server's effect-table bound.
func decodeResponseV2(payload []byte, resp *Response) (maxRefs int, err error) {
	cur := v2cur{b: payload}
	*resp = Response{}
	switch op := cur.u8(); op {
	case v2FrameHello:
		if v := cur.u8(); v != ProtoV2 && !cur.bad {
			return 0, fmt.Errorf("svc: v2 hello carries protocol %d", v)
		}
		resp.Status = StatusHello
		resp.Val = int64(cur.key())
		st := &StatsBody{}
		st.Shards = cur.key()
		st.Keys = cur.key()
		maxRefs = cur.key()
		st.Sched = string(cur.bytes())
		resp.Stats = st
		if !cur.done() {
			return 0, fmt.Errorf("svc: malformed v2 hello frame")
		}
		return maxRefs, nil

	case v2FrameResult:
		resp.ID = cur.uvarint()
		code := cur.u8()
		resp.Val = cur.varint()
		errBytes := cur.bytes()
		if !cur.done() {
			return 0, fmt.Errorf("svc: malformed v2 result frame")
		}
		status, ok := v2StatusString(code)
		if !ok {
			return 0, fmt.Errorf("svc: unknown v2 status code 0x%02x", code)
		}
		resp.Status = status
		if len(errBytes) > 0 {
			resp.Err = string(errBytes)
		}
		return 0, nil

	case v2FrameStatsResp:
		resp.ID = cur.uvarint()
		resp.Status = StatusOK
		st := &StatsBody{}
		st.Sched = string(cur.bytes())
		st.Shards = cur.key()
		st.Keys = cur.key()
		var f [20]int64
		for i := range f {
			f[i] = cur.varint()
		}
		if !cur.done() {
			return 0, fmt.Errorf("svc: malformed v2 stats frame")
		}
		setStatsBodyV2Fields(st, f)
		resp.Stats = st
		return 0, nil

	default:
		return 0, fmt.Errorf("svc: unknown v2 response frame op 0x%02x", op)
	}
}
