// Package svc puts the TWE runtime behind a real service boundary: a
// TCP daemon (cmd/twe-serve) that accepts concurrent client connections,
// parses each request's *declared effect* from the textual wire format
// (round-tripping rpl/effect String forms), and submits it to the runtime
// so the effect scheduler itself is the admission-control and
// serialization layer across clients — no locks in the request path.
//
// The paper's §1.1 motivates exactly this shape: "Servers use concurrency
// to respond to multiple client requests... A server may also combine
// concurrency used to handle multiple client requests with parallelism
// that may be needed to quickly process an individual request."
// internal/apps/server models it in-process; svc adds what a network
// boundary demands: per-connection sessions with pipelined requests and
// in-order responses, server-side deadlines and load shedding (DESIGN.md
// §10 fault layer), bounded in-flight admission with backpressure
// signaled to clients, graceful drain, and obs wiring (DESIGN.md §7).
//
// Wire formats: every connection opens with a 4-byte preamble (magic
// "TWE" + version byte) that negotiates the codec. Protocol v1 — this
// file — frames one JSON document per 4-byte big-endian length prefix
// (Request from client, Response from server) and is the debug/compat
// codec. Protocol v2 (wirev2.go) is the binary codec: varint-length
// frames, numeric op codes, and per-connection effect interning so
// steady-state requests carry a small integer effect ref instead of a
// textual summary. After the preamble the server sends a hello in the
// negotiated encoding, carrying the server-assigned session id and the
// store geometry the client needs to build effect strings. Both codecs
// drive the same session/admission state machine. See DESIGN.md §11 for
// the grammar and the admission state machine, §13 for protocol v2.
package svc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"twe/internal/effect"
)

// MaxFrame bounds a frame payload; larger length prefixes are treated as
// protocol errors so a corrupt or hostile peer cannot make the server
// allocate unboundedly.
const MaxFrame = 1 << 20

// Request ops.
const (
	OpPut    = "put"    // write Val to Key
	OpGet    = "get"    // read Key
	OpScan   = "scan"   // sum the whole store, inline in the scan's one task
	OpAdd    = "add"    // fold Val into Key's accumulator (dynamic effects, commutative)
	OpCancel = "cancel" // best-effort cancel of the in-flight request with id Target
	OpStats  = "stats"  // server counters snapshot
	OpBatch  = "batch"  // Batch carries inner requests admitted as one group

	// Two-phase cross-shard admission ops (DESIGN.md §16), in both
	// codecs: the router's two-phase lane sends them in v2 on each client
	// session's own member connections. A prepare admits a *hold* task
	// under the declared effect whose body answers StatusPrepared the
	// moment it starts (the effects are now held), then parks until a
	// commit or abort targeting the prepare's id arrives; Sub names the
	// inner data op the commit should execute (empty = pure hold). Commit/abort are inline control ops — they
	// never enter the runtime, so they cannot queue behind the very hold
	// they release — and their response carries the hold's outcome.
	OpPrepare = "prepare"
	OpCommit  = "commit"
	OpAbort   = "abort"
)

// Response statuses.
const (
	StatusHello     = "hello"     // connection accepted; Val = session id, Stats = geometry
	StatusOK        = "ok"        // served; Val is the result
	StatusShed      = "shed"      // deadline expired before service (load shedding)
	StatusBusy      = "busy"      // rejected at admission: in-flight bound hit (backpressure)
	StatusCancelled = "cancelled" // cancelled before it performed any access
	StatusRejected  = "rejected"  // malformed request, bad effect, or insufficient declared effect
	StatusError     = "error"     // body failed (panic, dyneff retry budget, ...)
	StatusPrepared  = "prepared"  // prepare op: the hold started; its declared effects are held
)

// Request is one client frame. Eff is the declared effect summary in the
// effect.Set String form, e.g.
//
//	"reads Root:Shard:[3], writes Root:Session:[0]"
//
// The server parses it (memoized, see EffectCache), checks it covers the
// accesses the op will perform, and submits the task under the *declared*
// effect — the wire effect is the admission key, exactly as §2.1 tasks
// declare summaries that the scheduler enforces.
type Request struct {
	ID     uint64 `json:"id"`
	Op     string `json:"op"`
	Key    int    `json:"key,omitempty"`
	Val    int64  `json:"val,omitempty"`
	Eff    string `json:"eff,omitempty"`
	Target uint64 `json:"target,omitempty"` // cancel: id of the request to cancel; commit/abort: the prepare id
	// Sub is the inner data op of an OpPrepare frame (put/get/scan/add, or
	// empty for a pure hold that performs no access when committed).
	Sub string `json:"sub,omitempty"`
	// Batch holds the inner requests of an OpBatch frame. One frame
	// carries the whole group; every inner data op runs the normal
	// admission state machine but all admitted ops enter the runtime
	// through a single SubmitBatch call (DESIGN.md §12). The outer frame
	// itself elicits no response: each inner request must carry its own
	// ID and receives its own response, in batch order (pipelining
	// semantics are identical to sending the inner frames back to back).
	// Nested batches are rejected; cancel/stats ride along as inline
	// control ops. An empty batch elicits nothing.
	Batch []Request `json:"batch,omitempty"`

	// Trace is an optional client-chosen trace/request id, propagated
	// into the server's request spans (DESIGN.md §14). Zero means
	// untraced and costs zero bytes on the wire in both codecs (omitted
	// here; v2 carries it only on connections that negotiated it).
	Trace uint64 `json:"trace,omitempty"`

	// resolved, when hasResolved is set, is the pre-parsed declared
	// effect. The v2 codec fills it from the connection's EffectTable at
	// decode time, so admission skips EffectCache entirely; the v1 path
	// leaves it unset and parses Eff through the cache.
	resolved    effect.Set
	hasResolved bool
	// wireErr is a per-request decode problem (e.g. an unknown v2 effect
	// ref) that should reject this request without dropping the
	// connection.
	wireErr error

	// effRef/hasEffRef record the v2 effect-table ref the declared effect
	// resolved through, so a proxy (internal/cluster) can memoize
	// per-request work keyed on the small integer instead of the set.
	effRef    uint32
	hasEffRef bool

	// Request-trace stamps, filled by the server codecs only when request
	// tracing is on (tracer-clock ns): when the frame read began, how long
	// the read took, and how long decoding took.
	recvTS int64
	recvNS int64
	decNS  int64
}

// ResolvedEffect returns the pre-parsed declared effect when the codec
// resolved one (v2 interned submits); the second result is false on the
// v1 path, where Eff carries the textual summary instead.
func (r *Request) ResolvedEffect() (effect.Set, bool) { return r.resolved, r.hasResolved }

// WireErr returns the per-request decode problem recorded by the codec
// (e.g. an unknown v2 effect ref), nil if the request decoded cleanly.
func (r *Request) WireErr() error { return r.wireErr }

// EffRef returns the v2 effect-table ref this request's declared effect
// resolved through, when there was one. Refs are connection-scoped and
// may be re-registered; callers memoizing on the ref must validate the
// resolved set still matches.
func (r *Request) EffRef() (uint32, bool) { return r.effRef, r.hasEffRef }

// Response is one server frame. Responses are written in request order
// per connection (pipelining preserves FIFO).
type Response struct {
	ID     uint64     `json:"id"`
	Status string     `json:"status"`
	Val    int64      `json:"val,omitempty"`
	Err    string     `json:"err,omitempty"`
	Stats  *StatsBody `json:"stats,omitempty"`
}

// StatsBody is the stats-op payload and the hello geometry. All counters
// are server-lifetime totals; the request accounting partitions every
// admitted-or-refused data op exactly:
//
//	Requests == Served + Shed + Busy + Cancelled + Rejected + Errors
type StatsBody struct {
	Sched  string `json:"sched,omitempty"`
	Shards int    `json:"shards,omitempty"`
	Keys   int    `json:"keys,omitempty"`

	Sessions      int64 `json:"sessions"`       // currently connected
	ConnsAccepted int64 `json:"conns_accepted"` // lifetime
	Disconnects   int64 `json:"disconnects"`    // reader errors with requests still in flight

	Requests   int64 `json:"requests"` // data ops received (excl. cancel/stats)
	Served     int64 `json:"served"`
	Shed       int64 `json:"shed"`
	Busy       int64 `json:"busy"`
	Cancelled  int64 `json:"cancelled"`
	Rejected   int64 `json:"rejected"`
	Errors     int64 `json:"errors"`
	ControlOps int64 `json:"control_ops"` // cancel + stats frames

	Batches    int64 `json:"batches"`     // batch frames received
	BatchedOps int64 `json:"batched_ops"` // inner ops delivered via batch frames

	EffHits      int64 `json:"eff_hits"` // effect-cache hits/misses
	EffMisses    int64 `json:"eff_misses"`
	Inflight     int64 `json:"inflight"` // admitted, response not yet resolved
	InflightPeak int64 `json:"inflight_peak"`

	V1Conns int64 `json:"v1_conns"` // connections negotiated per protocol
	V2Conns int64 `json:"v2_conns"`
	EffRegs int64 `json:"eff_regs"` // v2 effect registrations (incl. overwrites)
}

// WriteFrame marshals v and writes one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("svc: frame too large (%d > %d)", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame and unmarshals it into v.
func ReadFrame(r io.Reader, v any) error {
	payload, err := readFramePayload(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

// readFramePayload reads one length-prefixed frame body; split from
// ReadFrame so the traced server codec can time the read and the decode
// separately.
func readFramePayload(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("svc: frame too large (%d > %d)", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
