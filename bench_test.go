// Benchmarks regenerating the paper's evaluation (PPoPP 2013 §6;
// dissertation Ch. 6, §7.6), one benchmark group per figure, at CI-sized
// inputs. Run `go test -bench=. -benchmem` here, or use cmd/twe-bench for
// the paper-style thread-sweep tables at full scale.
package twe

import (
	"runtime"
	"testing"

	"twe/internal/apps/barneshut"
	"twe/internal/apps/dyngraph"
	"twe/internal/apps/fourwins"
	"twe/internal/apps/imageedit"
	"twe/internal/apps/kmeans"
	"twe/internal/apps/mesh"
	"twe/internal/apps/montecarlo"
	"twe/internal/apps/ssca2"
	"twe/internal/apps/tsp"
	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/rpl"
	"twe/internal/sched"
)

// mkSched resolves a scheduler constructor through the unified factory
// (internal/sched) so the benchmarks exercise exactly what the binaries
// run.
func mkSched(name string) func() core.Scheduler {
	mk, err := sched.Maker(sched.Config{Name: name})
	if err != nil {
		panic(err)
	}
	return mk
}

var (
	mkNaive = mkSched("naive")
	mkTree  = mkSched("tree")
)

func par() int { return runtime.GOMAXPROCS(0) }

// --- Figure 6.1: TWE (naive scheduler) vs DPJ-like baselines ---------------

func BenchmarkFig61BarnesHut(b *testing.B) {
	bodies := barneshut.Generate(barneshut.Config{Bodies: 4000, Theta: 0.5, Seed: 11})
	tr := barneshut.BuildTree(bodies, 0.5)
	b.Run("Seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs := append([]barneshut.Body(nil), bodies...)
			barneshut.RunSeq(bs, tr)
		}
	})
	b.Run("TWE-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs := append([]barneshut.Body(nil), bodies...)
			if err := barneshut.RunTWE(bs, tr, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DPJ-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs := append([]barneshut.Body(nil), bodies...)
			barneshut.RunPool(bs, tr, par())
		}
	})
}

func BenchmarkFig61MonteCarlo(b *testing.B) {
	cfg := montecarlo.Config{Paths: 2000, Steps: 60, Seed: 17, BatchSize: 64}
	b.Run("Seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			montecarlo.RunSeq(cfg)
		}
	})
	b.Run("TWE-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := montecarlo.RunTWE(cfg, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DPJ-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			montecarlo.RunPool(cfg, par())
		}
	})
}

func BenchmarkFig61KMeans(b *testing.B) {
	in := kmeans.Generate(kmeans.Config{Points: 2000, Attributes: 8, K: 1000, Iters: 1, Seed: 1, ChunkSize: 8})
	b.Run("Seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kmeans.RunSeq(in)
		}
	})
	b.Run("TWE-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kmeans.RunTWE(in, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DPJ-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kmeans.RunSync(in, par())
		}
	})
}

// --- Figure 6.2: FourWins AI and ImageEdit filters --------------------------

func BenchmarkFig62FourWins(b *testing.B) {
	var board fourwins.Board
	board.Drop(3, 1)
	board.Drop(3, 2)
	b.Run("Seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fourwins.RunSeq(board, 1, 5)
		}
	})
	b.Run("TWE-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fourwins.RunTWE(board, 1, 5, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchImageFilter(b *testing.B, f imageedit.Filter) {
	src := imageedit.New(400, 300, 13)
	b.Run("Seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imageedit.ApplySeq(src, f)
		}
	})
	b.Run("TWE-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := core.NewRuntime(mkNaive(), par())
			ed := imageedit.NewEditor(rt)
			ed.Open(1, src.Clone())
			if _, err := rt.GetValue(ed.ApplyAsync(1, f)); err != nil {
				b.Fatal(err)
			}
			rt.Shutdown()
		}
	})
}

func BenchmarkFig62ImageEditEdges(b *testing.B)   { benchImageFilter(b, imageedit.NewEdgeDetect(200)) }
func BenchmarkFig62ImageEditSharpen(b *testing.B) { benchImageFilter(b, imageedit.NewSharpen()) }

// --- Figure 6.3: K-Means contention sweep, tree vs queue vs sync ------------

func BenchmarkFig63KMeans(b *testing.B) {
	for _, k := range []int{1000, 200, 40} {
		in := kmeans.Generate(kmeans.Config{Points: 2000, Attributes: 8, K: k, Iters: 1, Seed: 1, ChunkSize: 8})
		b.Run("K="+itoa(k)+"/SingleQueue", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kmeans.RunTWE(in, mkNaive, par()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("K="+itoa(k)+"/Tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kmeans.RunTWE(in, mkTree, par()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("K="+itoa(k)+"/Sync", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kmeans.RunSync(in, par())
			}
		})
	}
}

// --- Figure 6.4: SSCA2, TSP, and the coarse benchmarks ----------------------

func BenchmarkFig64SSCA2(b *testing.B) {
	cfg := ssca2.Config{Nodes: 256, Edges: 2048, Seed: 3, Batch: 8}
	edges := ssca2.Generate(cfg)
	b.Run("SingleQueue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ssca2.RunTWE(cfg, edges, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ssca2.RunTWE(cfg, edges, mkTree, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssca2.RunSync(cfg, edges, par())
		}
	})
}

func BenchmarkFig64TSP(b *testing.B) {
	cfg := tsp.Config{Nodes: 10, CutOff: 3, Seed: 9}
	d := tsp.Generate(cfg)
	b.Run("SingleQueue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tsp.RunTWE(d, cfg, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tsp.RunTWE(d, cfg, mkTree, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ForkJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tsp.RunForkJoin(d, cfg.CutOff, par())
		}
	})
}

func BenchmarkFig64Coarse(b *testing.B) {
	bodies := barneshut.Generate(barneshut.Config{Bodies: 4000, Theta: 0.5, Seed: 11})
	tr := barneshut.BuildTree(bodies, 0.5)
	b.Run("BarnesHut/Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs := append([]barneshut.Body(nil), bodies...)
			if err := barneshut.RunTWE(bs, tr, mkTree, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BarnesHut/Queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs := append([]barneshut.Body(nil), bodies...)
			if err := barneshut.RunTWE(bs, tr, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	mcCfg := montecarlo.Config{Paths: 2000, Steps: 60, Seed: 17, BatchSize: 64}
	b.Run("MonteCarlo/Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := montecarlo.RunTWE(mcCfg, mkTree, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MonteCarlo/Queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := montecarlo.RunTWE(mcCfg, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	var board fourwins.Board
	board.Drop(3, 1)
	board.Drop(3, 2)
	b.Run("FourWins/Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fourwins.RunTWE(board, 1, 5, mkTree, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FourWins/Queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fourwins.RunTWE(board, 1, 5, mkNaive, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 7.6: dynamic effects ---------------------------------------------

func BenchmarkFig76Mesh(b *testing.B) {
	cfg := mesh.Config{W: 30, H: 30, BadFrac: 0.3, Threshold: 0.5, Spread: 0.9, MaxCavity: 8, Seed: 21}
	b.Run("Plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := mesh.Generate(cfg)
			mesh.RunPlain(m)
		}
	})
	b.Run("DynEff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := mesh.Generate(cfg)
			if _, err := mesh.RunDyn(m, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DynEff+TWE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := mesh.Generate(cfg)
			if _, err := mesh.RunTWE(m, mkTree, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig76DynGraph(b *testing.B) {
	cfg := dyngraph.Config{Nodes: 1000, Edges: 1300, Seed: 23}
	b.Run("Plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := dyngraph.Generate(cfg)
			dyngraph.RunPlain(g)
		}
	})
	b.Run("DynEff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := dyngraph.Generate(cfg)
			if _, err := dyngraph.RunDyn(g, par()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Scheduler and effect-algebra micro-benchmarks (ablations) --------------

// BenchmarkSchedulerThroughput measures raw executeLater/getValue cost for
// non-conflicting fine-grain tasks — the scheduler-overhead ablation behind
// the Fig. 6.3/6.4 gaps.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() core.Scheduler
	}{{"SingleQueue", mkNaive}, {"Tree", mkTree}} {
		b.Run(tc.name+"/Disjoint", func(b *testing.B) {
			rt := core.NewRuntime(tc.mk(), par())
			defer rt.Shutdown()
			tasks := make([]*core.Task, 64)
			for i := range tasks {
				tasks[i] = core.NewTask("t",
					effect.NewSet(effect.WriteEff(rpl.New(rpl.N("R"), rpl.Idx(i)))),
					func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := rt.ExecuteLater(tasks[i%64], nil)
				if _, err := rt.GetValue(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/Conflicting", func(b *testing.B) {
			rt := core.NewRuntime(tc.mk(), par())
			defer rt.Shutdown()
			task := core.NewTask("t", effect.MustParse("writes R"),
				func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := rt.ExecuteLater(task, nil)
				if _, err := rt.GetValue(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubmitBatch compares batched group admission against per-task
// submission for a conflict-free 64-task batch (the ISSUE 5 acceptance
// shape). The timer covers the admission phase only — the per-task cost
// of registering the group with the scheduler and dispatching the enabled
// tasks to the pool — because that is what batching amortizes; each
// iteration still drains the group (untimed) so queue depth stays
// bounded. submits/s is the acceptance metric recorded in
// BENCH_batch.json: Tree/Batch must clear ≥1.5× Tree/PerTask.
func BenchmarkSubmitBatch(b *testing.B) {
	const batch = 64
	// Disjoint regions under a shared namespace prefix (the shape a
	// service admitting request tasks produces, e.g. twe-serve's
	// per-request regions): per-task submission walks the spine once per
	// task, batched admission once per group.
	mkSubs := func() ([]*core.Task, []core.Submission) {
		tasks := make([]*core.Task, batch)
		subs := make([]core.Submission, batch)
		for i := range tasks {
			tasks[i] = core.NewTask("t",
				effect.NewSet(effect.WriteEff(rpl.New(rpl.N("srv"), rpl.N("data"), rpl.N("R"), rpl.Idx(i)))),
				func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
			subs[i] = core.Submission{Task: tasks[i]}
		}
		return tasks, subs
	}
	drain := func(b *testing.B, rt *core.Runtime, futs []*core.Future) {
		b.StopTimer()
		if err := rt.WaitAll(futs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	for _, tc := range []struct {
		name string
		mk   func() core.Scheduler
	}{{"SingleQueue", mkNaive}, {"Tree", mkTree}} {
		b.Run(tc.name+"/PerTask", func(b *testing.B) {
			rt := core.NewRuntime(tc.mk(), par())
			defer rt.Shutdown()
			tasks, _ := mkSubs()
			futs := make([]*core.Future, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, t := range tasks {
					futs[j] = rt.ExecuteLater(t, nil)
				}
				drain(b, rt, futs)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "submits/s")
		})
		b.Run(tc.name+"/Batch", func(b *testing.B) {
			rt := core.NewRuntime(tc.mk(), par())
			defer rt.Shutdown()
			_, subs := mkSubs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(b, rt, rt.SubmitBatch(subs))
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "submits/s")
		})
	}
}

// BenchmarkRootRWAblation isolates the §5.5.2 root read-write-lock
// optimization: many concurrent submissions of disjoint-subtree tasks,
// with and without the fast path.
func BenchmarkRootRWAblation(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() core.Scheduler
	}{
		{"RootRW", mkTree},
		{"RootMutex", mkSched("tree-rootmutex")},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rt := core.NewRuntime(tc.mk(), par())
			defer rt.Shutdown()
			tasks := make([]*core.Task, 32)
			for i := range tasks {
				tasks[i] = core.NewTask("t",
					effect.NewSet(effect.WriteEff(rpl.New(rpl.N("Sub"), rpl.Idx(i), rpl.N("Leaf")))),
					func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
			}
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					f := rt.ExecuteLater(tasks[i%32], nil)
					if _, err := rt.GetValue(f); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkRPLRelations measures the effect-comparison primitives every
// scheduling decision is built from.
func BenchmarkRPLRelations(b *testing.B) {
	a := rpl.MustParse("A:B:[3]:*")
	c := rpl.MustParse("A:B:[4]:C")
	b.Run("Disjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Disjoint(c)
		}
	})
	b.Run("Included", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Included(a)
		}
	})
	s1 := effect.MustParse("reads A:B writes A:B:[3]:*")
	s2 := effect.MustParse("writes A:B:[4]:C reads D")
	b.Run("SetNonInterfering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s1.NonInterfering(s2)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
