package schedtest

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"twe/internal/core"
	"twe/internal/effect"
)

// Admission-order conformance: conflicting, non-prioritized tasks are
// admitted in Seq order (the contract on core.Scheduler.Submit). Each case
// queues tasks behind a running blocker whose effect conflicts with some
// of them but not with all, releases it, and requires every conflicting
// pair to have started in Seq order. The blocker is what lets a newcomer
// find no enabled conflict while an elder it conflicts with still waits.
//
// RunOrder is separate from Run because the tree-lockfree scheduler's
// zero-lock fast path bypasses the ordered check and is not held to the
// contract.
func RunOrder(t *testing.T, name string, mk Factory) {
	cases := []struct {
		name, blocker string
		effs          []string
		// split: effs[:split] are submitted one at a time, the rest in
		// one SubmitBatch.
		split int
	}{
		// Readers behind a waiting writer: the writer waits on the
		// blocker's read, the readers conflict only with the writer.
		{"OrderSubmit", "reads R", []string{
			"writes R", "reads R", "reads R", "writes R", "reads R", "writes R", "reads R", "reads R",
		}, 8},
		// Wait at an ancestor, then move down: writes R:[0] passes R and
		// waits there on the blocker's reads R:*; reads R:[0] passes R
		// with no enabled conflict.
		{"OrderMoveDown", "reads R:*", []string{
			"writes R:[0]", "reads R:[0]", "reads R:[1]", "writes R:[1]", "reads R:[1]",
			"writes R:[0]", "reads R:[0]", "writes R:*", "reads R:[0]",
		}, 9},
		// A wildcard newcomer whose only conflict is an elder waiting
		// below its own node.
		{"OrderWildcardBelow", "reads R:[1]", []string{
			"writes R:[1]", "reads R:*", "writes R:[1]", "reads R:*", "reads R:[1]",
		}, 5},
		// A batch queues behind the tasks submitted before it, and its
		// members keep slice order among themselves.
		{"OrderBatch", "reads R", []string{
			"writes R", "reads R", "reads R", "writes R", "reads R", "writes R", "reads R",
		}, 2},
		{"OrderBatchMoveDown", "reads R:*", []string{
			"writes R:[0]", "reads R:[0]", "writes R:[0]", "reads R:[0]", "reads R:*", "writes R:[1]",
		}, 1},
	}
	for _, c := range cases {
		c := c
		t.Run(name+"/"+c.name, func(t *testing.T) { checkOrder(t, mk, c.blocker, c.effs, c.split) })
	}
}

// checkOrder runs one ordering case: a blocker task holding blocker runs
// while tasks with effs are submitted, effs[:split] one at a time and the
// rest as one SubmitBatch. After the blocker is released, every pair of
// conflicting tasks must have started in submission order.
func checkOrder(t *testing.T, mk Factory, blocker string, effs []string, split int) {
	rt, _, finish := newRT(t, mk, 4)
	defer finish()
	started, release := make(chan struct{}), make(chan struct{})
	hold := rt.ExecuteLater(core.NewTask("blocker", es(blocker), func(_ *core.Ctx, _ any) (any, error) {
		close(started)
		<-release
		return nil, nil
	}), nil)
	<-started

	var clock atomic.Int64
	at := make([]int64, len(effs))
	sets := make([]effect.Set, len(effs))
	subs := make([]core.Submission, len(effs))
	for i, e := range effs {
		i := i
		sets[i] = es(e)
		subs[i] = core.Submission{Task: core.NewTask(fmt.Sprintf("o%d", i), sets[i], func(_ *core.Ctx, _ any) (any, error) {
			at[i] = clock.Add(1)
			runtime.Gosched() // give an overtaking task the chance to start
			return nil, nil
		})}
	}
	var futs []*core.Future
	for _, sub := range subs[:split] {
		futs = append(futs, rt.Submit(sub.Task))
	}
	if split < len(subs) {
		futs = append(futs, rt.SubmitBatch(subs[split:])...)
	}
	close(release)
	if _, err := rt.GetValue(hold); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitAll(futs); err != nil {
		t.Fatal(err)
	}
	for i := range effs {
		for j := i + 1; j < len(effs); j++ {
			if sets[i].Conflicts(sets[j]) && at[i] > at[j] {
				t.Errorf("task %d (%s) started before older conflicting task %d (%s); start order %v",
					j, effs[j], i, effs[i], at)
			}
		}
	}
}
