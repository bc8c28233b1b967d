//go:build !race

package svc

import (
	"testing"
	"time"
)

// TestV2RoundTripAllocBudget bounds the heap allocations of one served v2
// request through the tree scheduler: a pipelined put+get pair on one
// session, counted process-wide (server reader, runtime, pool worker and
// writer all run in this process). The client side reads replies into
// reused buffers and allocates nothing, so the count is the server's.
func TestV2RoundTripAllocBudget(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Sched: "tree", Par: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	c, err := DialProto(s.Addr(), ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = 3
	put := Request{Op: OpPut, Key: key, Val: 7, Eff: PutEffect(c.Shards, key, c.SID)}
	get := Request{Op: OpGet, Key: key, Eff: GetEffect(c.Shards, key, c.SID)}
	var id uint64
	var resp Response
	round := func() {
		for _, req := range []*Request{&put, &get} {
			id++
			req.ID = id
			if err := c.Send(req); err != nil {
				panic(err)
			}
		}
		if err := c.Flush(); err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			payload, err := readFrameV2(c.br, &c.rbuf)
			if err != nil {
				panic(err)
			}
			if _, err := decodeResponseV2(payload, &resp); err != nil || resp.Status != StatusOK {
				panic("bad response")
			}
		}
		if resp.Val != 7 {
			panic("get did not see the put")
		}
	}
	round() // registers both effects and sizes every buffer
	// Fourteen today: the core.Task and its body closure, the Future,
	// the tree's state, the Response, the waiter list of the session op
	// the request queues behind, and the scratch of the tree descent
	// (route, pending and group lists per level, eight per request).
	const budget = 14
	perReq := testing.AllocsPerRun(500, round) / 2
	t.Logf("%.2f allocations per served v2 request", perReq)
	if perReq > budget {
		t.Fatalf("a served v2 request allocates %.2f times, budget %d", perReq, budget)
	}
}
