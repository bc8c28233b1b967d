package svc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// Client is a minimal twe-serve client speaking either wire protocol.
// Send/Flush may be used from one goroutine while Recv runs in another
// (the pipelined pattern the load generator uses); the convenience
// Do/Stats helpers are strictly sequential.
//
// On protocol v2 the client interns declared effects transparently: the
// first Send naming a given effect string emits a register frame ahead
// of the data frame (still fully pipelined — registrations are
// fire-and-forget and ordered before the submit that needs them), and
// every later Send reuses the small integer ref. If a client ever needs
// more than the server's table bound, refs are recycled ring-fashion and
// the overwritten slot is re-registered on next use.
type Client struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	proto int

	// Geometry from the server's hello frame.
	SID    int
	Sched  string
	Shards int
	Keys   int
	// MaxRefs is the server's per-connection effect-table bound (v2).
	MaxRefs int

	nextID uint64

	// traceIDs is set by EnableTraceIDs: v1 then simply marshals
	// Request.Trace, v2 appends the negotiated trailing trace uvarint to
	// every submit frame.
	traceIDs bool

	// v2 effect interning state (Send path only; not goroutine-safe,
	// matching Send's contract).
	refs    map[string]uint32 // effect string → registered ref
	refStr  []string          // ref → effect string, for ring eviction
	nextRef uint32
	wbuf    []byte // Send-side scratch frame
	rbuf    []byte // Recv-side reusable frame buffer
}

// Dial connects speaking protocol v1 (the JSON compat codec).
func Dial(addr string) (*Client, error) { return DialProto(addr, ProtoV1) }

// DialProto connects with the requested protocol version: it sends the
// 4-byte preamble and consumes the hello frame in the negotiated codec.
func DialProto(addr string, proto int) (*Client, error) {
	if proto != ProtoV1 && proto != ProtoV2 {
		return nil, fmt.Errorf("svc: unknown protocol version %d", proto)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, proto: proto,
		br: bufio.NewReaderSize(conn, 32<<10), bw: bufio.NewWriterSize(conn, 32<<10)}
	pre := Preamble(proto)
	if _, err := c.bw.Write(pre[:]); err == nil {
		err = c.bw.Flush()
	} else {
		conn.Close()
		return nil, err
	}
	hello, err := c.recvHello()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("svc: reading hello: %w", err)
	}
	c.SID = int(hello.Val)
	c.Sched = hello.Stats.Sched
	c.Shards = hello.Stats.Shards
	c.Keys = hello.Stats.Keys
	if proto == ProtoV2 {
		if c.MaxRefs <= 0 {
			c.MaxRefs = MaxEffectRefs
		}
		c.refs = make(map[string]uint32, 64)
		c.refStr = make([]string, 0, 64)
	}
	return c, nil
}

func (c *Client) recvHello() (*Response, error) {
	var hello Response
	switch c.proto {
	case ProtoV2:
		payload, err := readFrameV2(c.br, &c.rbuf)
		if err != nil {
			return nil, err
		}
		maxRefs, err := decodeResponseV2(payload, &hello)
		if err != nil {
			return nil, err
		}
		c.MaxRefs = maxRefs
	default:
		if err := ReadFrame(c.br, &hello); err != nil {
			return nil, err
		}
	}
	if hello.Status != StatusHello || hello.Stats == nil {
		return nil, fmt.Errorf("unexpected hello frame: %+v", hello)
	}
	return &hello, nil
}

// Proto reports the negotiated protocol version.
func (c *Client) Proto() int { return c.proto }

// EnableTraceIDs turns on per-request trace-id propagation (DESIGN.md
// §14) for the rest of the connection. On v1 the id rides as the
// Request.Trace JSON field; on v2 this negotiates the submit-frame
// trailing trace field via a connection-options frame (buffered; the
// next Flush pushes it, ordered before any subsequent submit).
func (c *Client) EnableTraceIDs() error {
	if c.traceIDs {
		return nil
	}
	c.traceIDs = true
	if c.proto != ProtoV2 {
		return nil
	}
	c.wbuf = appendConnOptsV2(c.wbuf[:0], v2OptTraceIDs)
	return writeFrameV2(c.bw, c.wbuf)
}

// effRef interns an effect string (v2): reuse the existing ref or pick
// the next ring slot, emit the register frame, and return the ref. When
// the table bound is exhausted the oldest slot is recycled — the server
// overwrites it on re-registration, so eviction is purely client policy.
func (c *Client) effRef(eff string) (uint32, error) {
	if r, ok := c.refs[eff]; ok {
		return r, nil
	}
	r := c.nextRef % uint32(c.MaxRefs)
	c.nextRef++
	if int(r) < len(c.refStr) {
		if old := c.refStr[r]; old != "" {
			delete(c.refs, old)
		}
		c.refStr[r] = eff
	} else {
		c.refStr = append(c.refStr, eff)
	}
	c.refs[eff] = r
	c.wbuf = appendRegEffectV2(c.wbuf[:0], r, eff)
	return r, writeFrameV2(c.bw, c.wbuf)
}

// Send buffers one request frame (call Flush to push it out).
func (c *Client) Send(req *Request) error {
	if c.proto != ProtoV2 {
		return WriteFrame(c.bw, req)
	}
	var err error
	switch req.Op {
	case OpCancel:
		c.wbuf = appendTargetV2(c.wbuf[:0], v2FrameCancel, req.ID, req.Target)
	case OpStats:
		c.wbuf = appendStatsReqV2(c.wbuf[:0], req.ID)
	case OpBatch:
		return c.SendBatch(req.Batch)
	case OpCommit:
		c.wbuf = appendTargetV2(c.wbuf[:0], v2FrameCommit, req.ID, req.Target)
	case OpAbort:
		c.wbuf = appendTargetV2(c.wbuf[:0], v2FrameAbort, req.ID, req.Target)
	case OpPrepare:
		var ref uint32
		if ref, err = c.effRef(req.Eff); err != nil {
			return err
		}
		if c.wbuf, err = appendPrepareV2(c.wbuf[:0], req.ID, req.Sub, req.Key, req.Val, ref); err != nil {
			return err
		}
	default:
		var ref uint32
		if ref, err = c.effRef(req.Eff); err != nil {
			return err
		}
		if c.wbuf, err = appendSubmitV2(c.wbuf[:0], req.ID, req.Op, req.Key, req.Val, ref); err != nil {
			return err
		}
		if c.traceIDs {
			c.wbuf = binary.AppendUvarint(c.wbuf, req.Trace)
		}
	}
	return writeFrameV2(c.bw, c.wbuf)
}

// SendBatch buffers one batch frame carrying reqs as a single admission
// group. Each inner request must carry its own ID and elicits its own
// response, in order; the outer frame has no response of its own.
func (c *Client) SendBatch(reqs []Request) error {
	if c.proto != ProtoV2 {
		return WriteFrame(c.bw, &Request{Op: OpBatch, Batch: reqs})
	}
	// Register every distinct effect first: register frames cannot ride
	// inside a batch frame, and ordering before it is all that matters.
	refs := make([]uint32, len(reqs))
	for i := range reqs {
		switch reqs[i].Op {
		case OpCancel, OpStats, OpBatch:
		default:
			r, err := c.effRef(reqs[i].Eff)
			if err != nil {
				return err
			}
			refs[i] = r
		}
	}
	buf := appendBatchHeaderV2(c.wbuf[:0], len(reqs))
	for i := range reqs {
		req := &reqs[i]
		var err error
		switch req.Op {
		case OpCancel:
			buf = appendTargetV2(buf, v2FrameCancel, req.ID, req.Target)
		case OpStats:
			buf = appendStatsReqV2(buf, req.ID)
		case OpBatch:
			// Encodable only as the id-bearing nested entry the server
			// answers with a "nested batch" rejection.
			buf = append(buf, v2FrameBatch)
			buf = binary.AppendUvarint(buf, req.ID)
		default:
			if buf, err = appendSubmitV2(buf, req.ID, req.Op, req.Key, req.Val, refs[i]); err != nil {
				return err
			}
			if c.traceIDs {
				buf = binary.AppendUvarint(buf, req.Trace)
			}
		}
	}
	c.wbuf = buf
	return writeFrameV2(c.bw, c.wbuf)
}

// Flush pushes buffered frames to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads one response frame.
func (c *Client) Recv() (*Response, error) {
	resp := &Response{}
	if c.proto == ProtoV2 {
		payload, err := readFrameV2(c.br, &c.rbuf)
		if err != nil {
			return nil, err
		}
		if _, err := decodeResponseV2(payload, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	if err := ReadFrame(c.br, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Do sends one request and waits for its response.
func (c *Client) Do(req *Request) (*Response, error) {
	if req.ID == 0 {
		c.nextID++
		req.ID = c.nextID
	}
	if err := c.Send(req); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.Recv()
}

// Stats fetches the server counters.
func (c *Client) Stats() (*StatsBody, error) {
	resp, err := c.Do(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK || resp.Stats == nil {
		return nil, fmt.Errorf("svc: bad stats response: %+v", resp)
	}
	return resp.Stats, nil
}

// Get reads a key (sequential helper; retries are the caller's concern).
func (c *Client) Get(key int) (*Response, error) {
	return c.Do(&Request{Op: OpGet, Key: key, Eff: GetEffect(c.Shards, key, c.SID)})
}

// Put writes a key.
func (c *Client) Put(key int, val int64) (*Response, error) {
	return c.Do(&Request{Op: OpPut, Key: key, Val: val, Eff: PutEffect(c.Shards, key, c.SID)})
}

// Add folds delta into a key's accumulator and returns the new total.
func (c *Client) Add(key int, delta int64) (*Response, error) {
	return c.Do(&Request{Op: OpAdd, Key: key, Val: delta, Eff: AddEffect(c.SID)})
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RawConn exposes the underlying connection (the fault-mode load
// generator closes it abruptly mid-run).
func (c *Client) RawConn() net.Conn { return c.conn }
