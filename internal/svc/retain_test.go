//go:build go1.24

package svc

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestClosedSessionIsCollected: a closed connection's session — its
// bufio buffers, response queue and codec — must become garbage once
// it has been retired; only its served-op count outlives it, for the
// drain audit. Reconnect-heavy clients otherwise grow the server's heap
// by one session per connection until drain.
func TestClosedSessionIsCollected(t *testing.T) {
	s := startTestServer(t, Config{Par: 2, Shards: 4, Keys: 64})
	for _, proto := range []int{ProtoV1, ProtoV2} {
		c, err := DialProto(s.Addr(), proto)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := c.Put(3, 7); err != nil || r.Status != StatusOK {
			t.Fatalf("put: %+v %v", r, err)
		}
		if r, err := c.Get(3); err != nil || r.Val != 7 {
			t.Fatalf("get: %+v %v", r, err)
		}
		wp := liveSession(t, s, c.SID)
		c.Close()
		waitRetired(t, s, c.SID)
		// The session goroutine may still be unwinding past sessionDone.
		for deadline := time.Now().Add(5 * time.Second); wp.Value() != nil && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if wp.Value() != nil {
			t.Fatalf("proto v%d: session %d still reachable after close and GC", proto, c.SID)
		}
	}
	if served := s.Metrics().Served.Load(); served != 4 {
		t.Fatalf("served = %d, want 4", served)
	}
	drainClean(t, s) // the audit still balances 4 store ops against Served
}

// liveSession returns a weak pointer to the live session with the given id.
func liveSession(t *testing.T, s *Server, sid int) weak.Pointer[session] {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess := range s.live {
		if sess.id == sid {
			return weak.Make(sess)
		}
	}
	t.Fatalf("session %d not live", sid)
	return weak.Pointer[session]{}
}

// waitRetired waits until sessionDone has removed the session.
func waitRetired(t *testing.T, s *Server, sid int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		live := false
		for sess := range s.live {
			live = live || sess.id == sid
		}
		s.mu.Unlock()
		if !live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d still live 5s after close", sid)
		}
		time.Sleep(time.Millisecond)
	}
}
