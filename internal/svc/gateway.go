package svc

import (
	"bufio"
	"encoding/binary"
	"net"
)

// ServerConn is the server side of one wire connection, detached from
// the in-process session machinery: preamble negotiation plus the
// negotiated codec, nothing else. The cluster router (internal/cluster)
// terminates client connections with it — same framing, same per-
// connection effect interning — and forwards admitted requests to the
// owning shard instead of a local runtime.
//
// Like serverCodec underneath, ReadRequest belongs to one goroutine and
// WriteResponse/Flush to another; the two paths share no mutable state.
type ServerConn struct {
	codec serverCodec
	v2    *v2ServerCodec // nil on v1 connections
	br    *bufio.Reader
}

// NewServerConn consumes the connection preamble from br and returns
// the negotiated codec wrapper. cache memoizes effect parses across
// connections (required); m, when non-nil, receives the v2 effect-
// registration count. The caller owns the bufio pair and the
// underlying conn.
func NewServerConn(br *bufio.Reader, bw *bufio.Writer, cache *EffectCache, m *Metrics) (*ServerConn, error) {
	proto, err := readPreamble(br)
	if err != nil {
		return nil, err
	}
	sc := &ServerConn{br: br}
	if proto == ProtoV2 {
		if m == nil {
			m = &Metrics{}
		}
		v2c := newV2ServerCodec(br, bw, cache, m, nil)
		sc.v2 = v2c
		sc.codec = v2c
	} else {
		sc.codec = &v1ServerCodec{br: br, bw: bw}
	}
	return sc, nil
}

// ReadRequest decodes the next request frame (reader goroutine only).
func (c *ServerConn) ReadRequest(req *Request) error { return c.codec.ReadRequest(req) }

// RequestBuffered reports whether a whole request frame is already in
// the read buffer, so that the next ReadRequest returns without waiting
// on the socket (reader goroutine only). Complete v2 register-effect and
// connection-options frames ahead of it are skipped, since ReadRequest
// consumes those silently; a registration followed by half a submit
// frame reads as "would wait". It only peeks: nothing is consumed.
func (c *ServerConn) RequestBuffered() bool {
	buf, _ := c.br.Peek(c.br.Buffered())
	if c.v2 == nil {
		return len(buf) >= 4 && uint64(len(buf)-4) >= uint64(binary.BigEndian.Uint32(buf))
	}
	for {
		n, k := binary.Uvarint(buf)
		if k <= 0 || uint64(len(buf)-k) < n {
			return false
		}
		frame := buf[k : k+int(n)]
		if n == 0 || (frame[0] != v2FrameRegEffect && frame[0] != v2FrameConnOpts) {
			return true
		}
		buf = buf[k+int(n):]
	}
}

// WriteResponse encodes one buffered response frame (writer goroutine
// only; Flush pushes).
func (c *ServerConn) WriteResponse(resp *Response) error { return c.codec.WriteResponse(resp) }

// Flush pushes buffered responses to the wire.
func (c *ServerConn) Flush() error { return c.codec.Flush() }

// Proto reports the negotiated protocol version (ProtoV1 or ProtoV2).
func (c *ServerConn) Proto() int { return c.codec.Proto() }

// Table returns the connection's v2 effect-intern table, or nil on v1
// connections.
func (c *ServerConn) Table() *EffectTable {
	if c.v2 == nil {
		return nil
	}
	return c.v2.Table()
}

// NewConnBuffers wraps conn in the bufio pair the codecs expect, sized
// like the in-process session's.
func NewConnBuffers(conn net.Conn) (*bufio.Reader, *bufio.Writer) {
	return bufio.NewReaderSize(conn, 32<<10), bufio.NewWriterSize(conn, 32<<10)
}
