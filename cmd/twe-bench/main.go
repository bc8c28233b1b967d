// Command twe-bench regenerates the evaluation figures of the tasks-with-
// effects paper (PPoPP 2013 §6; dissertation Ch. 6 and §7.6) on this
// machine. Each figure is printed as a table with the same series the
// paper plots:
//
//	-fig 6.1   Barnes-Hut / Monte Carlo / K-Means speedups, TWE (naive
//	           scheduler) vs a DPJ-like fork-join baseline.
//	-fig 6.2   FourWins AI and ImageEdit (edge detection, sharpen)
//	           speedups under the naive scheduler.
//	-fig 6.3   K-Means times: tree vs single-queue vs unsafe sync, for
//	           K = 25000, 5000, 1000 (scaled by -scale).
//	-fig 6.4   SSCA2 (tree / single-queue / sync), TSP (tree /
//	           single-queue / fork-join), and Barnes-Hut + Monte Carlo +
//	           FourWins under both TWE schedulers.
//	-fig 7.6   dynamic effects: mesh refinement and graph relabeling,
//	           sequential vs parallel dyneff vs TWE-integrated, with abort
//	           counts and overhead vs the uninstrumented baseline.
//	-fig all   everything.
//
// Absolute numbers depend on the host (the paper used a 40-core Xeon
// E7-4860); the series *relationships* are the reproduction target. Use
// -scale paper for the paper's input sizes and -threads to set the sweep.
package main

import (
	"flag"
	"fmt"
	"os"

	"twe/internal/apps/barneshut"
	"twe/internal/apps/dyngraph"
	"twe/internal/apps/fourwins"
	"twe/internal/apps/imageedit"
	"twe/internal/apps/kmeans"
	"twe/internal/apps/mesh"
	"twe/internal/apps/montecarlo"
	"twe/internal/apps/ssca2"
	"twe/internal/apps/tsp"
	"twe/internal/bench"
	"twe/internal/core"
	"twe/internal/effect"
	"twe/internal/rpl"
	"twe/internal/sched"
)

var (
	figFlag     = flag.String("fig", "all", "figure to regenerate: 6.1, 6.2, 6.3, 6.4, 7.6, all")
	threadsFlag = flag.String("threads", "1,2,4,8", "comma-separated thread sweep")
	repsFlag    = flag.Int("reps", 3, "repetitions per configuration (paper: 11)")
	scaleFlag   = flag.String("scale", "small", "input scale: small (CI-sized) or paper")
	jsonFlag    = flag.String("json", "", "write BENCH_<workload>.json perf snapshots into this directory and exit (see EXPERIMENTS.md for the schema)")
	appsFlag    = flag.String("apps", "", "with -json: comma-separated registry workloads to run (empty = all)")
)

// mkSched resolves a scheduler name through the internal/sched registry;
// every scheduler this binary constructs goes through it.
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

type sizes struct {
	kmPoints, kmAttrs, kmIters, kmChunk int
	kmKs                                []int
	ssNodes, ssEdges, ssBatch           int
	tspNodes, tspCutoff                 int
	bhBodies                            int
	mcPaths, mcSteps, mcBatch           int
	fwDepth                             int
	imgW, imgH                          int
	meshW, meshH                        int
	dgNodes, dgEdges                    int
}

func sizesFor(scale string) (sizes, error) {
	switch scale {
	case "small":
		return sizes{
			kmPoints: 4000, kmAttrs: 8, kmIters: 1, kmChunk: 8,
			kmKs:    []int{2000, 400, 80},
			ssNodes: 512, ssEdges: 4096, ssBatch: 8,
			tspNodes: 11, tspCutoff: 4,
			bhBodies: 20000,
			mcPaths:  4000, mcSteps: 120, mcBatch: 64,
			fwDepth: 6,
			imgW:    1000, imgH: 700,
			meshW: 60, meshH: 60,
			dgNodes: 3000, dgEdges: 3900,
		}, nil
	case "paper":
		return sizes{
			kmPoints: 50000, kmAttrs: 8, kmIters: 3, kmChunk: 1,
			kmKs:    []int{25000, 5000, 1000},
			ssNodes: 1 << 10, ssEdges: 1 << 15, ssBatch: 1,
			tspNodes: 13, tspCutoff: 6,
			bhBodies: 20000,
			mcPaths:  10000, mcSteps: 240, mcBatch: 64,
			fwDepth: 8,
			imgW:    3000, imgH: 2000,
			meshW: 120, meshH: 120,
			dgNodes: 10000, dgEdges: 13000,
		}, nil
	default:
		return sizes{}, fmt.Errorf("unknown scale %q", scale)
	}
}

func main() {
	flag.Parse()
	threads, err := bench.ParseThreads(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sz, err := sizesFor(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	reps := *repsFlag

	if *jsonFlag != "" {
		if err := runJSON(*jsonFlag, threads, reps, *appsFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func(sizes, []int, int) []*bench.Figure) {
		for _, fig := range f(sz, threads, reps) {
			fig.Print(os.Stdout)
		}
		_ = name
	}

	fmt.Printf("twe-bench: scale=%s threads=%v reps=%d\n", *scaleFlag, threads, reps)
	switch *figFlag {
	case "6.1":
		run("6.1", fig61)
	case "6.2":
		run("6.2", fig62)
	case "6.3":
		run("6.3", fig63)
	case "6.4":
		run("6.4", fig64)
	case "7.6":
		run("7.6", fig76)
	case "ablation":
		run("ablation", figAblation)
	case "all":
		run("6.1", fig61)
		run("6.2", fig62)
		run("6.3", fig63)
		run("6.4", fig64)
		run("7.6", fig76)
		run("ablation", figAblation)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}

// fig61: speedups of the DPJ-ported benchmarks, TWE (naive scheduler) vs a
// DPJ-like version with no run-time effect scheduling, both relative to
// the sequential code.
func fig61(sz sizes, threads []int, reps int) []*bench.Figure {
	var figs []*bench.Figure

	// Barnes-Hut.
	{
		bodies := barneshut.Generate(barneshut.Config{Bodies: sz.bhBodies, Theta: 0.5, Seed: 11})
		tr := barneshut.BuildTree(bodies, 0.5)
		base, _ := bench.MeasureOnce("seq", reps, func() error {
			b := append([]barneshut.Body(nil), bodies...)
			barneshut.RunSeq(b, tr)
			return nil
		})
		fig := &bench.Figure{ID: "6.1a", Title: "Barnes-Hut force computation", Baseline: "sequential", BaseTime: base}
		fig.Series = append(fig.Series, bench.Measure("TWEJava(naive)", threads, reps, func(par int) error {
			b := append([]barneshut.Body(nil), bodies...)
			return barneshut.RunTWE(b, tr, mkNaive, par)
		}))
		fig.Series = append(fig.Series, bench.Measure("DPJ-like", threads, reps, func(par int) error {
			b := append([]barneshut.Body(nil), bodies...)
			barneshut.RunPool(b, tr, par)
			return nil
		}))
		figs = append(figs, fig)
	}

	// Monte Carlo.
	{
		cfg := montecarlo.Config{Paths: sz.mcPaths, Steps: sz.mcSteps, Seed: 17, BatchSize: sz.mcBatch}
		base, _ := bench.MeasureOnce("seq", reps, func() error { montecarlo.RunSeq(cfg); return nil })
		fig := &bench.Figure{ID: "6.1b", Title: "Monte Carlo financial simulation", Baseline: "sequential", BaseTime: base}
		fig.Series = append(fig.Series, bench.Measure("TWEJava(naive)", threads, reps, func(par int) error {
			_, err := montecarlo.RunTWE(cfg, mkNaive, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("DPJ-like", threads, reps, func(par int) error {
			montecarlo.RunPool(cfg, par)
			return nil
		}))
		figs = append(figs, fig)
	}

	// K-Means at the paper's Fig 6.1 configuration (largest K).
	{
		cfg := kmeans.Config{Points: sz.kmPoints, Attributes: sz.kmAttrs, K: sz.kmKs[0], Iters: sz.kmIters, Seed: 1, ChunkSize: sz.kmChunk}
		in := kmeans.Generate(cfg)
		base, _ := bench.MeasureOnce("seq", reps, func() error { kmeans.RunSeq(in); return nil })
		fig := &bench.Figure{ID: "6.1c", Title: fmt.Sprintf("K-Means (K=%d)", cfg.K), Baseline: "sequential", BaseTime: base}
		fig.Series = append(fig.Series, bench.Measure("TWEJava(naive)", threads, reps, func(par int) error {
			_, err := kmeans.RunTWE(in, mkNaive, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("DPJ-like", threads, reps, func(par int) error {
			kmeans.RunSync(in, par)
			return nil
		}))
		figs = append(figs, fig)
	}
	return figs
}

// fig62: FourWins AI and ImageEdit filters under the naive scheduler,
// speedups relative to the single-thread TWE run (the paper had no pure
// sequential versions of these applications).
func fig62(sz sizes, threads []int, reps int) []*bench.Figure {
	var figs []*bench.Figure

	// FourWins AI.
	{
		var board fourwins.Board
		for _, m := range []struct {
			c int
			p int8
		}{{3, 1}, {3, 2}, {2, 1}, {4, 2}} {
			board.Drop(m.c, m.p)
		}
		s := bench.Measure("TWEJava(naive)", threads, reps, func(par int) error {
			_, err := fourwins.RunTWE(board, 1, sz.fwDepth, mkNaive, par)
			return err
		})
		fig := &bench.Figure{ID: "6.2a", Title: fmt.Sprintf("FourWins AI (depth %d)", sz.fwDepth), Baseline: "TWE @1 thread", Series: []bench.Series{s}}
		if len(s.Points) > 0 {
			fig.BaseTime = s.Points[0].Median
		}
		figs = append(figs, fig)
	}

	// ImageEdit: edge detection and sharpen.
	for _, fc := range []struct {
		id, title string
		filter    imageedit.Filter
	}{
		{"6.2b", "ImageEdit — edge detection", imageedit.NewEdgeDetect(200)},
		{"6.2c", "ImageEdit — sharpen", imageedit.NewSharpen()},
	} {
		src := imageedit.New(sz.imgW, sz.imgH, 13)
		s := bench.Measure("TWEJava(naive)", threads, reps, func(par int) error {
			rt := core.NewRuntime(mkNaive(), par)
			defer rt.Shutdown()
			ed := imageedit.NewEditor(rt)
			ed.Open(1, src.Clone())
			_, err := rt.GetValue(ed.ApplyAsync(1, fc.filter))
			return err
		})
		fig := &bench.Figure{ID: fc.id, Title: fc.title, Baseline: "TWE @1 thread", Series: []bench.Series{s}}
		if len(s.Points) > 0 {
			fig.BaseTime = s.Points[0].Median
		}
		figs = append(figs, fig)
	}
	return figs
}

// fig63: K-Means running time under the tree scheduler vs the single-queue
// scheduler vs the unsafe sync version, across the contention sweep K.
func fig63(sz sizes, threads []int, reps int) []*bench.Figure {
	var figs []*bench.Figure
	for i, k := range sz.kmKs {
		cfg := kmeans.Config{Points: sz.kmPoints, Attributes: sz.kmAttrs, K: k, Iters: sz.kmIters, Seed: 1, ChunkSize: sz.kmChunk}
		in := kmeans.Generate(cfg)
		fig := &bench.Figure{
			ID:    fmt.Sprintf("6.3%c", 'a'+i),
			Title: fmt.Sprintf("K-Means, clusters=%d (lower K = higher contention)", k),
		}
		fig.Series = append(fig.Series, bench.Measure("SingleQueue", threads, reps, func(par int) error {
			_, err := kmeans.RunTWE(in, mkNaive, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("Tree", threads, reps, func(par int) error {
			_, err := kmeans.RunTWE(in, mkTree, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("kmeans-Sync", threads, reps, func(par int) error {
			kmeans.RunSync(in, par)
			return nil
		}))
		figs = append(figs, fig)
	}
	return figs
}

// fig64: SSCA2, TSP and the coarser benchmarks under both schedulers.
func fig64(sz sizes, threads []int, reps int) []*bench.Figure {
	var figs []*bench.Figure

	// SSCA2.
	{
		cfg := ssca2.Config{Nodes: sz.ssNodes, Edges: sz.ssEdges, Seed: 3, Batch: sz.ssBatch}
		edges := ssca2.Generate(cfg)
		fig := &bench.Figure{ID: "6.4a", Title: "SSCA2 graph construction"}
		fig.Series = append(fig.Series, bench.Measure("SingleQueue", threads, reps, func(par int) error {
			_, err := ssca2.RunTWE(cfg, edges, mkNaive, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("Tree", threads, reps, func(par int) error {
			_, err := ssca2.RunTWE(cfg, edges, mkTree, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("SSCA2-sync", threads, reps, func(par int) error {
			ssca2.RunSync(cfg, edges, par)
			return nil
		}))
		figs = append(figs, fig)
	}

	// TSP.
	{
		cfg := tsp.Config{Nodes: sz.tspNodes, CutOff: sz.tspCutoff, Seed: 9}
		d := tsp.Generate(cfg)
		fig := &bench.Figure{ID: "6.4b", Title: fmt.Sprintf("TSP, %d nodes, cut-off=%d", cfg.Nodes, cfg.CutOff)}
		fig.Series = append(fig.Series, bench.Measure("SingleQueue", threads, reps, func(par int) error {
			_, err := tsp.RunTWE(d, cfg, mkNaive, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("Tree", threads, reps, func(par int) error {
			_, err := tsp.RunTWE(d, cfg, mkTree, par)
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("ForkJoinTask", threads, reps, func(par int) error {
			tsp.RunForkJoin(d, cfg.CutOff, par)
			return nil
		}))
		figs = append(figs, fig)
	}

	// Barnes-Hut, Monte Carlo, FourWins under both schedulers.
	{
		bodies := barneshut.Generate(barneshut.Config{Bodies: sz.bhBodies, Theta: 0.5, Seed: 11})
		tr := barneshut.BuildTree(bodies, 0.5)
		mcCfg := montecarlo.Config{Paths: sz.mcPaths, Steps: sz.mcSteps, Seed: 17, BatchSize: sz.mcBatch}
		var board fourwins.Board
		board.Drop(3, 1)
		board.Drop(3, 2)

		fig := &bench.Figure{ID: "6.4c", Title: "Barnes-Hut / Monte Carlo / FourWins, tree vs single queue"}
		fig.Series = append(fig.Series,
			bench.Measure("BH-Tree", threads, reps, func(par int) error {
				b := append([]barneshut.Body(nil), bodies...)
				return barneshut.RunTWE(b, tr, mkTree, par)
			}),
			bench.Measure("BH-Queue", threads, reps, func(par int) error {
				b := append([]barneshut.Body(nil), bodies...)
				return barneshut.RunTWE(b, tr, mkNaive, par)
			}),
			bench.Measure("MC-Tree", threads, reps, func(par int) error {
				_, err := montecarlo.RunTWE(mcCfg, mkTree, par)
				return err
			}),
			bench.Measure("MC-Queue", threads, reps, func(par int) error {
				_, err := montecarlo.RunTWE(mcCfg, mkNaive, par)
				return err
			}),
			bench.Measure("FW-Tree", threads, reps, func(par int) error {
				_, err := fourwins.RunTWE(board, 1, sz.fwDepth, mkTree, par)
				return err
			}),
			bench.Measure("FW-Queue", threads, reps, func(par int) error {
				_, err := fourwins.RunTWE(board, 1, sz.fwDepth, mkNaive, par)
				return err
			}),
		)
		figs = append(figs, fig)
	}
	return figs
}

// figAblation isolates the scheduler design choices DESIGN.md calls out:
// the §5.5.2 root read-write-lock fast path and the raw per-task
// scheduling cost of each scheduler under disjoint vs conflicting effects.
func figAblation(sz sizes, threads []int, reps int) []*bench.Figure {
	var figs []*bench.Figure
	const tasksPerRun = 20000

	// Root RW ablation: disjoint-subtree task storm.
	{
		fig := &bench.Figure{ID: "A1", Title: "Root RW-lock ablation (§5.5.2): 20k disjoint-subtree tasks"}
		for _, tc := range []struct {
			name string
			mk   func() core.Scheduler
		}{
			{"RootRW", mkTree},
			{"RootMutex", mkSched("tree-rootmutex")},
		} {
			tc := tc
			fig.Series = append(fig.Series, bench.Measure(tc.name, threads, reps, func(par int) error {
				rt := core.NewRuntime(tc.mk(), par)
				defer rt.Shutdown()
				tasks := make([]*core.Task, 64)
				for i := range tasks {
					i := i
					tasks[i] = core.NewTask("t",
						effect.NewSet(effect.WriteEff(rpl.New(rpl.N("Sub"), rpl.Idx(i), rpl.N("Leaf")))),
						func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
				}
				futs := make([]*core.Future, 0, tasksPerRun)
				for i := 0; i < tasksPerRun; i++ {
					futs = append(futs, rt.ExecuteLater(tasks[i%64], nil))
				}
				for _, f := range futs {
					if _, err := rt.GetValue(f); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		figs = append(figs, fig)
	}

	// Per-task cost: queue vs tree, disjoint vs conflicting effects.
	{
		fig := &bench.Figure{ID: "A2", Title: "Scheduler per-task overhead: 20k tasks, disjoint (D) vs one shared region (C)"}
		for _, tc := range []struct {
			name     string
			mk       func() core.Scheduler
			conflict bool
		}{
			{"Queue-D", mkNaive, false},
			{"Queue-C", mkNaive, true},
			{"Tree-D", mkTree, false},
			{"Tree-C", mkTree, true},
		} {
			tc := tc
			fig.Series = append(fig.Series, bench.Measure(tc.name, threads, reps, func(par int) error {
				rt := core.NewRuntime(tc.mk(), par)
				defer rt.Shutdown()
				mkTask := func(i int) *core.Task {
					reg := rpl.New(rpl.N("Hot"))
					if !tc.conflict {
						reg = rpl.New(rpl.N("Cold"), rpl.Idx(i%64))
					}
					return core.NewTask("t", effect.NewSet(effect.WriteEff(reg)),
						func(_ *core.Ctx, _ any) (any, error) { return nil, nil })
				}
				for i := 0; i < tasksPerRun; i += 256 {
					futs := make([]*core.Future, 0, 256)
					for j := 0; j < 256; j++ {
						futs = append(futs, rt.ExecuteLater(mkTask(i+j), nil))
					}
					for _, f := range futs {
						if _, err := rt.GetValue(f); err != nil {
							return err
						}
					}
				}
				return nil
			}))
		}
		figs = append(figs, fig)
	}
	return figs
}

// fig76: the dynamic-effects evaluation — self-relative speedups and
// overhead vs the uninstrumented baseline, plus abort counts.
func fig76(sz sizes, threads []int, reps int) []*bench.Figure {
	var figs []*bench.Figure

	// Mesh refinement.
	{
		cfg := mesh.Config{W: sz.meshW, H: sz.meshH, BadFrac: 0.3, Threshold: 0.5, Spread: 0.9, MaxCavity: 8, Seed: 21}
		plain, _ := bench.MeasureOnce("plain", reps, func() error {
			m := mesh.Generate(cfg)
			mesh.RunPlain(m)
			return nil
		})
		var lastAborts int64
		fig := &bench.Figure{ID: "7.6a", Title: "Delaunay-style mesh refinement (dynamic effects)",
			Baseline: "uninstrumented sequential", BaseTime: plain}
		fig.Series = append(fig.Series, bench.Measure("DynEff", threads, reps, func(par int) error {
			m := mesh.Generate(cfg)
			res, err := mesh.RunDyn(m, par)
			if res != nil {
				lastAborts = res.Aborts
			}
			return err
		}))
		fig.Series = append(fig.Series, bench.Measure("DynEff+TWE", threads, reps, func(par int) error {
			m := mesh.Generate(cfg)
			_, err := mesh.RunTWE(m, mkTree, par)
			return err
		}))
		fig.Notes = append(fig.Notes, fmt.Sprintf("aborts in last DynEff run: %d", lastAborts))
		figs = append(figs, fig)
	}

	// Graph relabeling.
	{
		cfg := dyngraph.Config{Nodes: sz.dgNodes, Edges: sz.dgEdges, Seed: 23}
		plain, _ := bench.MeasureOnce("plain", reps, func() error {
			g := dyngraph.Generate(cfg)
			dyngraph.RunPlain(g)
			return nil
		})
		var lastAborts int64
		fig := &bench.Figure{ID: "7.6b", Title: "Irregular graph relabeling (dynamic effects)",
			Baseline: "uninstrumented sequential", BaseTime: plain}
		fig.Series = append(fig.Series, bench.Measure("DynEff", threads, reps, func(par int) error {
			g := dyngraph.Generate(cfg)
			res, err := dyngraph.RunDyn(g, par)
			if res != nil {
				lastAborts = res.Aborts
			}
			return err
		}))
		fig.Notes = append(fig.Notes, fmt.Sprintf("aborts in last DynEff run: %d", lastAborts))
		figs = append(figs, fig)
	}
	return figs
}
