package tree

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/isolcheck"
)

// heldSubmit is a tree scheduler whose Submit only captures the future:
// the test then performs Submit's two halves itself, so it can stop in the
// window between registering a future as waiting and placing its effects.
type heldSubmit struct {
	*Scheduler
	held chan *core.Future
}

func (h *heldSubmit) Submit(f *core.Future) { h.held <- f }

// TestLivenessNetSkipsHalfSubmittedTask opens Submit's window by hand: the
// future is in waiting with its effects created but unplaced, and nothing
// is enabled. Each form of the liveness net must return at once instead of
// waiting for the placement under recheckMu, and must leave the task
// unprioritized; the submitter's own placement and net run then admit it.
func TestLivenessNetSkipsHalfSubmittedTask(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func(*Scheduler)
	}{
		{"ensureLiveness", (*Scheduler).ensureLiveness},
		{"ensureLivenessCoalesced", (*Scheduler).ensureLivenessCoalesced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			h := &heldSubmit{Scheduler: s, held: make(chan *core.Future, 1)}
			rt := core.NewRuntime(h, 2)
			defer rt.Shutdown()
			ran := make(chan struct{})
			f := rt.ExecuteLater(core.NewTask("half", effect.MustParse("writes A:[1], reads B"),
				func(_ *core.Ctx, _ any) (any, error) { close(ran); return nil, nil }), nil)
			if got := <-h.held; got != f {
				t.Fatal("captured a different future")
			}

			// Submit's first half: registered and waiting, nothing placed.
			st := newState(f)
			s.liveMu.Lock()
			s.waiting[f] = struct{}{}
			s.liveMu.Unlock()
			place := func() {
				s.root.lock()
				s.insert(s.root, st.effs, 0, false, nil)
			}

			returned := make(chan struct{})
			go func() {
				tc.net(s)
				close(returned)
			}()
			select {
			case <-returned:
			case <-time.After(time.Second):
				place() // let the waiting net finish before failing
				<-returned
				t.Fatal("liveness net waited on a half-submitted task")
			}
			if f.Status() != core.Waiting {
				t.Fatalf("net touched the half-submitted task: status %v", f.Status())
			}

			// Submit's second half: place, then run the net.
			place()
			s.ensureLiveness()
			if f.Status() < core.Enabled {
				t.Fatalf("task not enabled after its submitter placed it: status %v", f.Status())
			}
			select {
			case <-ran:
			case <-time.After(5 * time.Second):
				t.Fatal("enabled task never ran")
			}
			if _, err := rt.GetValue(f); err != nil {
				t.Fatal(err)
			}
			rt.Shutdown() // GetValue can return before the runtime's Done reaches s
			if !s.Quiesced() {
				t.Fatalf("not quiesced after Done: pending=%d effects=%d", s.Pending(), s.PendingEffects())
			}
		})
	}
}

// TestLivenessServePattern drives the twe-serve admission pattern: each
// session keeps a chain of 16 ops in flight, every op writing its session
// region and one of two shared shard regions, so the last enabled task
// often finishes while another session's submission is half placed. Half
// the windows go through SubmitBatch, as pipelined v2 frames do. Every task
// must run, isolation must hold, and the tree must drain.
func TestLivenessServePattern(t *testing.T) {
	const (
		sessions = 6
		depth    = 16
		windows  = 40
	)
	for _, par := range []int{2, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			s := New()
			chk := isolcheck.New()
			rt := core.NewRuntime(s, par, core.WithMonitor(chk))
			var ran [sessions]int
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tasks := make([]*core.Task, 2)
					for k := range tasks {
						tasks[k] = core.NewTask(fmt.Sprintf("op[s%d]", k),
							effect.MustParse(fmt.Sprintf("writes Session:[%d], writes Shard:[%d]:K", i, k)),
							func(_ *core.Ctx, _ any) (any, error) { ran[i]++; return nil, nil })
					}
					for w := 0; w < windows; w++ {
						var futs []*core.Future
						if w%2 == 0 {
							for d := 0; d < depth; d++ {
								futs = append(futs, rt.ExecuteLater(tasks[(i+d)%2], nil))
							}
						} else {
							subs := make([]core.Submission, depth)
							for d := range subs {
								subs[d] = core.Submission{Task: tasks[(i+d)%2]}
							}
							futs = rt.SubmitBatch(subs)
						}
						if err := rt.WaitAll(futs); err != nil {
							errs <- err
							return
						}
					}
				}(i)
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatalf("serve pattern stalled: pending=%d", s.Pending())
			}
			rt.Shutdown()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for i, n := range ran {
				if n != depth*windows {
					t.Errorf("session %d ran %d of %d ops", i, n, depth*windows)
				}
			}
			for _, v := range chk.Violations() {
				t.Error(v)
			}
			if !s.Quiesced() {
				t.Fatalf("not quiesced: pending=%d effects=%d", s.Pending(), s.PendingEffects())
			}
		})
	}
}
