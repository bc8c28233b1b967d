package svc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestScanInlineExact drives scans on a one-worker server, both standalone
// and as the two-phase lane runs them (prepare with sub scan, then
// commit), interleaved with the scanning session's own puts while a
// second session re-puts its keys alongside. Every scan must return
// exactly the sum session order implies, the isolation oracle must stay
// clean, and no scan may spawn: a scan is one task summing the store in
// its own body.
func TestScanInlineExact(t *testing.T) {
	s := startTestServer(t, Config{Par: 1, Isolcheck: true})
	watchdog(t, s, 30*time.Second)
	defer drainClean(t, s)

	a, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	keys := s.cfg.Keys

	// b owns the odd keys. It primes each to a fixed value, then keeps
	// re-putting the same values: every put conflicts with a scan, yet
	// b's share of the sum never moves.
	var bSum int64
	for k := 1; k < keys; k += 2 {
		if r, err := b.Put(k, int64(k)); err != nil || r.Status != StatusOK {
			t.Fatalf("prime put %d: %+v %v", k, r, err)
		}
		bSum += int64(k)
	}
	stop := make(chan struct{})
	bDone := make(chan error, 1)
	go func() {
		for k := 1; ; k = (k + 2) % keys {
			select {
			case <-stop:
				bDone <- nil
				return
			default:
			}
			r, err := b.Put(k, int64(k))
			if err != nil {
				bDone <- err
				return
			}
			if r.Status != StatusOK {
				bDone <- fmt.Errorf("b put %d: status %q (%s)", k, r.Status, r.Err)
				return
			}
		}
	}()

	spawns0 := s.Tracer().Metrics().Spawns.Load()
	rng := rand.New(rand.NewSource(7))
	own := make([]int64, keys) // a's even keys, as a's puts leave them
	var ownSum int64
	send := func(req *Request) {
		t.Helper()
		a.nextID++
		req.ID = a.nextID
		if err := a.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	put := func() *Request {
		k := 2 * rng.Intn(keys/2)
		v := rng.Int63n(1000)
		ownSum += v - own[k]
		own[k] = v
		return &Request{Op: OpPut, Key: k, Val: v, Eff: PutEffect(a.Shards, k, a.SID)}
	}
	recv := func(want string) *Response {
		t.Helper()
		r, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != want {
			t.Fatalf("status %q (%s), want %q", r.Status, r.Err, want)
		}
		return r
	}

	const rounds = 200
	for round := 0; round < rounds; round++ {
		// Standalone: puts, a scan, and a put after it, all pipelined.
		for i := 0; i < 3; i++ {
			send(put())
		}
		want := bSum + ownSum
		send(&Request{Op: OpScan, Eff: ScanEffect(a.SID)})
		send(put())
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			recv(StatusOK)
		}
		if r := recv(StatusOK); r.Val != want {
			t.Fatalf("round %d: scan = %d, want %d", round, r.Val, want)
		}
		recv(StatusOK)

		// Two-phase: a put pipelined behind the prepared hold must run
		// after the committed scan, so the scan must not see it.
		want = bSum + ownSum
		send(&Request{Op: OpPrepare, Sub: OpScan, Eff: ScanEffect(a.SID)})
		prepID := a.nextID
		send(put())
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		recv(StatusPrepared)
		send(&Request{Op: OpCommit, Target: prepID})
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		recv(StatusOK)
		if r := recv(StatusOK); r.Val != want {
			t.Fatalf("round %d: committed scan = %d, want %d", round, r.Val, want)
		}
	}
	close(stop)
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	if n := s.Tracer().Metrics().Spawns.Load() - spawns0; n != 0 {
		t.Fatalf("%d spawns across %d scans, want 0", n, 2*rounds)
	}
}
