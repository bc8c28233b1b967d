package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"twe/internal/cluster"
	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/obs"
	"twe/internal/rpl"
	"twe/internal/sched"
	"twe/internal/svc"
)

// layerInputs are a workload's own inputs, in the order its plan emits
// them, for timing each layer's public calls on one goroutine: the
// effect strings as they travel, the sets they parse to, every region
// they name, and (serve workloads) the requests themselves.
type layerInputs struct {
	strs    []string
	sets    []effect.Set
	regions []rpl.RPL
	reqs    []svc.Request
}

const layerPlanOps = 4096 // plan prefix, per client, the layer timings replay

// serveLayerInputs interleaves the clients' plans op by op, as a
// saturated server sees them.
func serveLayerInputs(spec *workloadSpec, seed int64) (*layerInputs, error) {
	in := &layerInputs{}
	var plans [numClients]*servePlan
	var effs [numClients]effStrings
	for c := range plans {
		plans[c] = newServePlan(seed, c, spec.Mix)
		effs[c].reset(c)
	}
	for i := 0; i < layerPlanOps; i++ {
		for c := range plans {
			op := plans[c].next()
			str := effs[c].of(op)
			set, err := effect.Parse(str)
			if err != nil {
				return nil, fmt.Errorf("plan effect %q: %w", str, err)
			}
			in.add(str, set)
			if c == 0 {
				in.reqs = append(in.reqs, svc.Request{ID: uint64(i + 1), Op: opNames[op.kind], Key: op.key, Val: op.val, Eff: str})
			}
		}
	}
	return in, nil
}

func (in *layerInputs) add(str string, set effect.Set) {
	in.strs = append(in.strs, str)
	in.sets = append(in.sets, set)
	for i := 0; i < set.Len(); i++ {
		in.regions = append(in.regions, set.At(i).Region)
	}
}

// finegrainLayerInputs flattens the submitters' streams task by task.
func finegrainLayerInputs(sys *fgSystem, seed int64) *layerInputs {
	in := &layerInputs{}
	var plans [numClients]*fgPlan
	for c := range plans {
		plans[c] = newFGPlan(seed, c)
	}
	add := func(t *core.Task) { in.add(t.Eff.String(), t.Eff) }
	for i := 0; i < layerPlanOps/4; i++ {
		for c := range plans {
			switch sub := plans[c].next(); sub.kind {
			case fgWrite:
				add(sys.writeTask[sub.k])
			case fgRead:
				add(sys.readTask)
			case fgBatch:
				for j := 0; j < fgBatchSize; j++ {
					add(sys.pointTask[sub.k*fgBatchSize+j])
				}
			}
		}
	}
	return in
}

// timeNS returns the cost of one call of f in nanoseconds: f(i) runs n
// times per repetition and the median repetition counts, so one
// descheduling does not move the number.
func timeNS(n int, f func(i int)) float64 {
	const reps = 5
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

var sinkBool bool // keeps the timed relations from being optimized away

// layerTimer runs the single-threaded layer timings of one traced run
// and records a span around each.
type layerTimer struct {
	base  time.Time
	spans []span
	out   map[string]float64
}

func (lt *layerTimer) measure(name string, n int, f func(i int)) {
	t0 := time.Now()
	lt.out[name] = timeNS(n, f)
	lt.span(name, t0)
}

// span records that the layer timing `name` ran from t0 until now. The
// ids sit above every client's span ids.
func (lt *layerTimer) span(name string, t0 time.Time) {
	lt.spans = append(lt.spans, span{Name: "layer." + name, ID: uint64(0xff)<<32 | uint64(len(lt.spans)+1),
		StartNS: int64(t0.Sub(lt.base)), DurNS: int64(time.Since(t0))})
}

// relationTimings times the rpl and effect relations, parse and intern
// over the inputs, pairing neighbours in plan order: the pairs a
// scheduler compares are the tasks that arrive together.
func (lt *layerTimer) relationTimings(in *layerInputs) {
	const n = 100_000
	nr, ns := len(in.regions), len(in.sets)
	lt.measure("rpl.disjoint_ns", n, func(i int) { sinkBool = in.regions[i%nr].Disjoint(in.regions[(i+1)%nr]) })
	lt.measure("rpl.included_ns", n, func(i int) { sinkBool = in.regions[i%nr].Included(in.regions[(i+1)%nr]) })
	lt.measure("effect.noninterfering_ns", n, func(i int) { sinkBool = in.sets[i%ns].NonInterfering(in.sets[(i+1)%ns]) })
	// Admission checks the declared effect, parsed off the wire and
	// interned, against the required one the server builds itself.
	interner := effect.NewInterner(0)
	declared := make([]effect.Set, ns)
	for i, s := range in.sets {
		declared[i] = interner.InternSet(s)
	}
	lt.measure("effect.covers_ns", n, func(i int) { sinkBool = declared[i%ns].Covers(in.sets[i%ns]) })
	lt.measure("effect.parse_ns", n/10, func(i int) {
		_, err := effect.Parse(in.strs[i%ns])
		sinkBool = err == nil
	})
	lt.measure("effect.intern_ns", n/10, func(i int) { sinkBool = interner.InternSet(in.sets[i%ns]).Len() > 0 })
}

// admissionTimings replays the inputs through an in-process runtime of
// the default scheduler, one task at a time on one goroutine, and times
// the caller-side Submit, a SubmitBatch of 16 per task, Submit → body
// start and Submit → OnDone. Serve workloads use it because a child's
// Submit cannot be timed from outside; runtime_finegrain times its live
// loop instead.
func (lt *layerTimer) admissionTimings(in *layerInputs) error {
	tr := obs.New()
	rt, err := sched.NewRuntime(sched.Config{PoolSize: numClients}, core.WithTracer(tr))
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	body := func(*core.Ctx, any) (any, error) { return nil, nil }
	tasks := make([]*core.Task, len(in.sets))
	for i, s := range in.sets {
		tasks[i] = core.NewTask("replay", rt.Interner().InternSet(s), body)
	}
	const n = 2000
	done := make(chan struct{}, fgBatchSize)
	onDone := func(*core.Future) { done <- struct{}{} }
	var admit, handoff, toDone []float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s0 := time.Now()
		f := rt.Submit(tasks[i%len(tasks)], core.WithOnDone(onDone))
		admit = append(admit, float64(time.Since(s0)))
		<-done
		toDone = append(toDone, float64(time.Since(s0)))
		if sub, _, start, _ := f.TraceStamps(); sub > 0 && start >= sub {
			handoff = append(handoff, float64(start-sub))
		}
	}
	var batch []float64
	subs := make([]core.Submission, fgBatchSize)
	for i := 0; i < n/fgBatchSize; i++ {
		for j := range subs {
			subs[j] = core.Submission{Task: tasks[(i*fgBatchSize+j)%len(tasks)], OnDone: onDone}
		}
		s0 := time.Now()
		rt.SubmitBatch(subs)
		batch = append(batch, float64(time.Since(s0))/fgBatchSize)
		for range subs {
			<-done
		}
	}
	lt.out["tree.admit_ns"] = median(admit)
	lt.out["tree.admit_batch_ns_per_task"] = median(batch)
	lt.out["pool.handoff_ns"] = median(handoff)
	lt.out["core.submit_to_done_ns"] = median(toDone)
	lt.span("admission_replay", t0)
	return nil
}

// codecTimings times Client.Send (before any Flush) over the requests
// and ServerConn.ReadRequest over the byte stream those Sends produced.
// The client talks to a loopback listener inside the harness that
// answers the hello and records everything else it receives.
func (lt *layerTimer) codecTimings(in *layerInputs, proto int, prefix string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	cache := svc.NewEffectCache(0)
	type recorded struct {
		stream []byte
		err    error
	}
	got := make(chan recorded, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- recorded{err: err}
			return
		}
		defer conn.Close()
		// Tee the raw bytes, preamble included, while a ServerConn on the
		// same stream negotiates and sends the hello.
		var stream bytes.Buffer
		br, bw := bufio.NewReaderSize(io.TeeReader(conn, &stream), 32<<10), bufio.NewWriterSize(conn, 32<<10)
		sc, err := svc.NewServerConn(br, bw, cache, nil)
		if err == nil {
			err = sc.WriteResponse(&svc.Response{Status: svc.StatusHello, Stats: &svc.StatsBody{Sched: "sink", Shards: storeShards, Keys: storeKeys}})
		}
		if err == nil {
			err = sc.Flush()
		}
		if err != nil {
			got <- recorded{err: err}
			return
		}
		_, err = io.Copy(io.Discard, br)
		got <- recorded{stream: stream.Bytes(), err: err}
	}()

	c, err := svc.DialProto(ln.Addr().String(), proto)
	if err != nil {
		return err
	}
	// Several passes over the plan prefix on one connection: the v2 effect
	// registrations of the first pass amortize as they do on a live one.
	const passes = 8
	reqs := in.reqs
	sent := float64(passes * len(reqs))
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := range reqs {
			if err := c.Send(&reqs[i]); err != nil {
				c.Close()
				return err
			}
		}
	}
	encode := float64(time.Since(t0)) / sent
	if err := c.Flush(); err != nil {
		c.Close()
		return err
	}
	c.Close()
	rec := <-got
	if rec.err != nil {
		return fmt.Errorf("recording sink: %w", rec.err)
	}

	decode := timeNS(1, func(int) {
		br := bufio.NewReaderSize(bytes.NewReader(rec.stream), 32<<10)
		sc, err := svc.NewServerConn(br, bufio.NewWriter(io.Discard), cache, nil)
		if err != nil {
			return
		}
		var req svc.Request
		for sc.ReadRequest(&req) == nil {
		}
	}) / sent
	lt.out[prefix+"_encode_ns"] = encode
	lt.out[prefix+"_decode_ns"] = decode
	lt.out[prefix+"_bytes_per_req"] = float64(len(rec.stream)-4) / sent
	lt.span(prefix+"_codec", t0)
	return nil
}

// routeTiming times the router's routing decision over the inputs for
// a two-member fleet.
func (lt *layerTimer) routeTiming(in *layerInputs) {
	ns := len(in.sets)
	lt.measure("cluster.route_ns", 100_000, func(i int) { sinkBool = cluster.Route(in.sets[i%ns], 2).Kind == cluster.KindShard })
}
