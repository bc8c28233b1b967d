// Command benchmark is this repository's benchmark: one closed-loop
// harness, four workloads, eight bounded end-to-end metrics plus the
// failure count, and a traced run that reports every layer a request
// crosses. It launches the real twe-serve and twe-router binaries as
// children, measures them from outside, and checks their answers in the
// same run. See README.md for the definitions and BENCHMARK.json for
// the contract the numbers are gated on.
//
//	bash benchmark/run.sh                       every workload, end to end
//	bash benchmark/run.sh -traced               every workload, per layer
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -reps 10 -out a.json  a set of runs for -compare
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the contract's result line")
		seed     = flag.Int64("seed", 1, "seed of the request plans; rep i of -reps uses seed+i")
		seconds  = flag.Int("seconds", 30, "measured seconds per run: cycles of one saturated and one solo second")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run (same as -traced)")
		traced   = flag.Bool("traced", false, "traced per-layer run: -req-trace children, client spans, layer timings, scheduler ladder")
		sched    = flag.String("sched", "", "-sched of the system under test (default: the daemons' own default)")
		reps     = flag.Int("reps", 1, "runs per workload, each on its own seed")
		out      = flag.String("out", "", "write the report here (default benchmark/out/report[_traced].json)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare base.json new.json")
		root     = flag.String("root", "", "repository root (default: found from the working directory)")
		buildDir = flag.String("build-dir", "", "where binaries and scratch files go (default <root>/.bench_build)")
		ladder   = flag.String("ladder-child", "", "saturate runtime_finegrain on this scheduler in this process and print the rate (the traced run's ladder re-executes the harness with it)")
		ladderMS = flag.Int("ladder-ms", 5000, "with -ladder-child: milliseconds to saturate for")
		window   = flag.Int("window", satWindow, "with -ladder-child: submissions each submitter keeps outstanding")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare base.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if *ladder != "" {
		ladderChildMain(*ladder, *seed, time.Duration(*ladderMS)*time.Millisecond, *window)
		return
	}
	if *workload != "" && findWorkload(*workload) == nil {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 3 {
		fatalf("-seconds %d: a run needs at least 3 s", *seconds)
	}

	e, err := newEnv(*root, *buildDir)
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(e.runDir)
	if err := e.buildChildren(); err != nil {
		fatalf("%v", err)
	}

	cfg := runConfig{seconds: *seconds, traced: *traced || *trace == 1, sched: *sched}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	rep := &report{SchemaVersion: schemaVersion, Host: fingerprint(e.root), Seed: *seed, Reps: *reps,
		Seconds: *seconds, Traced: cfg.traced, EndToEnd: endToEnd, PerLayer: perLayer}
	var last *runResult
	for _, spec := range workloads {
		if *workload != "" && spec.Name != *workload {
			continue
		}
		wr := &workloadRun{Spec: spec}
		rep.Workloads = append(rep.Workloads, wr)
		for i := 0; i < *reps; i++ {
			cfg.seed = *seed + int64(i)
			last = runOne(e, spec, cfg)
			last.print(defs)
			wr.Runs = append(wr.Runs, last)
		}
	}

	path := *out
	if path == "" {
		name := "report.json"
		if cfg.traced {
			name = "report_traced.json"
		}
		path = filepath.Join(e.outDir, name)
	}
	if err := rep.write(path); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("# report written to %s\n", path)
	if *workload != "" {
		fmt.Println(last.resultLine(defs))
	}
}

// runOne measures one workload once.
func runOne(e *env, spec *workloadSpec, cfg runConfig) *runResult {
	switch {
	case spec.Proto == 0 && cfg.traced:
		return runFinegrainTraced(e, spec, cfg)
	case spec.Proto == 0:
		return runFinegrain(spec, cfg)
	case cfg.traced:
		return runServeTraced(e, spec, cfg)
	default:
		return runServe(e, spec, cfg)
	}
}

// newEnv locates the repository and prepares the directories a run
// writes to, all of them inside the checkout.
func newEnv(root, buildDir string) (*env, error) {
	if root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "twe-serve", "main.go")); err == nil {
				root = dir
				break
			}
		}
		if root == "" {
			return nil, fmt.Errorf("cmd/twe-serve not found from the working directory; run from the repository root or pass -root")
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "twe-serve", "main.go")); err != nil {
		return nil, fmt.Errorf("%s does not hold the repository (cmd/twe-serve missing)", root)
	}
	if buildDir == "" {
		buildDir = filepath.Join(root, ".bench_build")
	}
	e := &env{root: root, buildDir: buildDir, outDir: filepath.Join(root, "benchmark", "out")}
	for _, d := range []string{e.buildDir, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.runDir, err = os.MkdirTemp(e.buildDir, "run-"); err != nil {
		return nil, err
	}
	// run.sh times its build of the harness itself and passes it on.
	if ns, err := strconv.ParseInt(os.Getenv("TWE_BENCH_HARNESS_BUILD_NS"), 10, 64); err == nil {
		e.buildS = float64(ns) / 1e9
	}
	return e, nil
}

// writeSpans writes a traced run's spans, kept in memory until now.
func (e *env) writeSpans(workload string, spans []span) error {
	f, err := os.Create(filepath.Join(e.outDir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
