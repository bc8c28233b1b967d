package server

import (
	"testing"
	"time"

	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/isolcheck"
	"twe/internal/naive"
	"twe/internal/tree"
)

func smallCfg() Config {
	return Config{Shards: 4, Keys: 64, Sessions: 8, Requests: 300, ScanEvery: 25, Seed: 31}
}

func factories() map[string]func() core.Scheduler {
	return map[string]func() core.Scheduler{
		"naive": func() core.Scheduler { return naive.New() },
		"tree":  func() core.Scheduler { return tree.New() },
	}
}

// TestSequentialWindowMatchesReplay: with a window of 1 every request
// completes before the next is submitted, so the concurrent server must
// reproduce the sequential replay exactly — responses included.
func TestSequentialWindowMatchesReplay(t *testing.T) {
	cfg := smallCfg()
	log := GenerateLog(cfg)
	want := RunSeq(cfg, log)
	for name, mk := range factories() {
		got, err := RunTWE(cfg, log, mk, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.GetResponses) != len(want.GetResponses) {
			t.Fatalf("%s: response count mismatch", name)
		}
		for i := range want.GetResponses {
			if got.GetResponses[i] != want.GetResponses[i] {
				t.Fatalf("%s: get #%d = %d, want %d", name, i, got.GetResponses[i], want.GetResponses[i])
			}
		}
		for i := range want.ScanTotals {
			if got.ScanTotals[i] != want.ScanTotals[i] {
				t.Fatalf("%s: scan #%d = %d, want %d", name, i, got.ScanTotals[i], want.ScanTotals[i])
			}
		}
		for k := range want.Shards {
			for i := range want.Shards[k] {
				if got.Shards[k][i] != want.Shards[k][i] {
					t.Fatalf("%s: shard state diverged at [%d][%d]", name, k, i)
				}
			}
		}
	}
}

// TestConcurrentWindowInvariants: with many requests in flight, responses
// depend on scheduling, but (a) session accounting must be exact — the
// increments are unsynchronized and only isolation protects them; (b)
// every final cell holds either 0 or some value that was actually put to
// that key; (c) the isolation monitor stays silent.
func TestConcurrentWindowInvariants(t *testing.T) {
	cfg := smallCfg()
	log := GenerateLog(cfg)
	want := RunSeq(cfg, log)

	for name, mk := range factories() {
		chk := isolcheck.New()
		rt := core.NewRuntime(mk(), 8, core.WithMonitor(chk))
		s := New(cfg, rt)
		futs := make([]*core.Future, len(log))
		for i := range log {
			futs[i] = s.Submit(log[i])
		}
		for _, f := range futs {
			if _, err := rt.GetValue(f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		rt.Shutdown()
		for _, v := range chk.Violations() {
			t.Errorf("%s: %v", name, v)
		}

		for id := range want.SessionReqs {
			if got := s.sessions[id].Requests; got != want.SessionReqs[id] {
				t.Errorf("%s: session %d count %d, want %d (lost increment)", name, id, got, want.SessionReqs[id])
			}
		}
		putValues := map[int]map[int]bool{}
		for _, r := range log {
			if r.Kind != 'P' {
				continue
			}
			if putValues[r.Key] == nil {
				putValues[r.Key] = map[int]bool{}
			}
			putValues[r.Key][r.Value] = true
		}
		for key := 0; key < cfg.Keys; key++ {
			shard, slot := s.shardOf(key)
			v := s.shards[shard][slot]
			if v == 0 {
				continue
			}
			if !putValues[key][v] {
				t.Errorf("%s: key %d holds %d, never put (torn write?)", name, key, v)
			}
		}
	}
}

// TestDeadlineLoadShedding: requests that cannot start within their
// deadline are shed instead of served late. A gate task holds the even
// sessions' regions until each request of those sessions has been shed
// by its deadline timer, so their queueing is certain rather than hoped
// for; the odd sessions' requests run before them on the remaining worker.
// A shed request performs no accesses, so session accounting partitions
// the log exactly: served + shed == submitted. Isolation must hold across
// the shed/served mix.
func TestDeadlineLoadShedding(t *testing.T) {
	cfg := smallCfg()
	cfg.Deadline = 50 * time.Microsecond
	log := GenerateLog(cfg)
	var gated []effect.Effect
	for id := 0; id < cfg.Sessions; id += 2 {
		gated = append(gated, effect.WriteEff(sessionRegion(id)))
	}
	for name, mk := range factories() {
		chk := isolcheck.New()
		rt := core.NewRuntime(mk(), 2, core.WithMonitor(chk))
		s := New(cfg, rt)
		started, release := make(chan struct{}), make(chan struct{})
		gate := rt.ExecuteLater(&core.Task{Name: "gate", Eff: effect.NewSet(gated...),
			Body: func(*core.Ctx, any) (any, error) {
				close(started)
				<-release
				return nil, nil
			}}, nil)
		<-started
		// The odd sessions' requests go first, one at a time onto an idle
		// runtime, and each is served unless it misses the deadline. Then
		// the even sessions', all at once: none can start while the gate
		// runs, so only its deadline timer finishes each of them, and the
		// gate holds until it has.
		futs := make([]*core.Future, len(log))
		for i, r := range log {
			if r.Session%2 == 1 {
				futs[i] = s.Submit(r)
				if _, err := rt.GetValue(futs[i]); err != nil && !s.shedable(err) {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		for i, r := range log {
			if r.Session%2 == 0 {
				futs[i] = s.Submit(r)
			}
		}
		for i, r := range log {
			for r.Session%2 == 0 && !futs[i].IsDone() {
				time.Sleep(cfg.Deadline)
			}
		}
		close(release)
		if _, err := rt.GetValue(gate); err != nil {
			t.Fatalf("%s: gate: %v", name, err)
		}
		res, err := s.collect(log, futs)
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range chk.Violations() {
			t.Errorf("%s: %v", name, v)
		}
		served := 0
		for id, n := range res.SessionReqs {
			if id%2 == 0 && n != 0 {
				t.Errorf("%s: session %d served %d requests behind the gate", name, id, n)
			}
			served += n
		}
		if res.Shed == 0 || served == 0 {
			t.Errorf("%s: served %d, shed %d under a %v deadline: want both nonzero", name, served, res.Shed, cfg.Deadline)
		}
		if served+res.Shed != cfg.Requests {
			t.Errorf("%s: served %d + shed %d != %d submitted (partial service?)",
				name, served, res.Shed, cfg.Requests)
		}
	}
}

// TestNoSheddingUnderGenerousDeadline: a deadline the workload easily
// meets must not change behavior — the sequential-window run still
// matches the replay exactly and nothing is shed.
func TestNoSheddingUnderGenerousDeadline(t *testing.T) {
	cfg := smallCfg()
	cfg.Deadline = time.Minute
	log := GenerateLog(cfg)
	want := RunSeq(cfg, log)
	got, err := RunTWE(cfg, log, func() core.Scheduler { return tree.New() }, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shed != 0 {
		t.Fatalf("shed %d requests under a one-minute deadline", got.Shed)
	}
	for i := range want.GetResponses {
		if got.GetResponses[i] != want.GetResponses[i] {
			t.Fatalf("get #%d = %d, want %d", i, got.GetResponses[i], want.GetResponses[i])
		}
	}
	for id, n := range want.SessionReqs {
		if got.SessionReqs[id] != n {
			t.Fatalf("session %d count %d, want %d", id, got.SessionReqs[id], n)
		}
	}
}

func TestGenerateLogShape(t *testing.T) {
	cfg := smallCfg()
	log := GenerateLog(cfg)
	if len(log) != cfg.Requests {
		t.Fatalf("log size %d", len(log))
	}
	scans := 0
	for _, r := range log {
		switch r.Kind {
		case 'P', 'G', 'S':
		default:
			t.Fatalf("bad kind %c", r.Kind)
		}
		if r.Kind == 'S' {
			scans++
		}
		if r.Session < 0 || r.Session >= cfg.Sessions {
			t.Fatal("session out of range")
		}
	}
	if scans != cfg.Requests/cfg.ScanEvery {
		t.Fatalf("scans = %d", scans)
	}
}
