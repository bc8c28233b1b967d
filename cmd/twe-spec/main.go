// Command twe-spec drives the executable admission specification
// (internal/spec, DESIGN.md §15): an explicit-state model checker over
// small closed configurations of the TWE admission contract, a TLA+
// exporter for offline TLC runs, and a trace-refinement oracle that
// validates obs event-log dumps from live runs.
//
// Explore mode enumerates every interleaving of a preset configuration
// (≤4 tasks × ≤3 effect regions) breadth-first, checking the invariant
// catalog (I1..I6 plus deadlock) in every reachable state; violations
// print a shortest counterexample trace. Mutations seed known contract
// breaks to prove the checker catches them.
//
// Refine mode replays a JSONL event log — written by `twe-trace
// -eventlog`, `twe-serve -eventlog`, or obs.WriteEventLog — as a
// candidate behavior the model must accept.
//
// Cluster mode (-cluster) switches to the cross-shard two-phase model
// (DESIGN.md §16): coordinator rounds acquiring prepared holds member
// by member, with its own invariant catalog (C1..C5 plus deadlock) and
// its own mutation set.
//
// Usage:
//
//	twe-spec -list
//	twe-spec -explore [-preset NAME] [-mutate M] [-expect-violation] [-max-states N]
//	twe-spec -explore -cluster [-preset NAME] [-mutate M] [-expect-violation]
//	twe-spec -tla [-preset NAME] [-mutate M] [-o FILE]
//	twe-spec -refine FILE [-partial]
//
// Mutations: skip-conflict, skip-register, leak-cancel; with -cluster:
// concurrent-rounds, unordered-prepare, early-commit, leak-abort,
// prepare-on-foreign-session, commit-before-all-acked.
//
// Exhaustive check of every preset:   twe-spec -explore
// Prove a mutation is caught:         twe-spec -explore -preset pair -mutate skip-conflict -expect-violation
// Check the cross-shard lane:         twe-spec -explore -cluster
// Prove prepare ordering matters:     twe-spec -explore -cluster -preset cross-conflict -mutate unordered-prepare -expect-violation
// Export TLA+ for TLC:                twe-spec -tla -preset full -o full.tla
// Validate a live event dump:         twe-spec -refine events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twe/internal/spec"
)

func main() {
	list := flag.Bool("list", false, "list preset configurations and exit")
	explore := flag.Bool("explore", false, "exhaustively model-check preset configuration(s)")
	tla := flag.Bool("tla", false, "export the configuration as a TLA+ module")
	refine := flag.String("refine", "", "replay the JSONL event-log FILE against the admission model")
	cluster := flag.Bool("cluster", false, "model-check the cross-shard two-phase lane instead of single-node admission")
	preset := flag.String("preset", "", "preset name (empty = all presets, for -explore)")
	mutate := flag.String("mutate", "", "seed a contract break: skip-conflict, skip-register, or leak-cancel (with -cluster: concurrent-rounds, unordered-prepare, early-commit, leak-abort, prepare-on-foreign-session, commit-before-all-acked)")
	expectViolation := flag.Bool("expect-violation", false, "exit 0 only if exploration finds a violation (mutation testing)")
	maxStates := flag.Int("max-states", 0, "abort exploration beyond this many states (0 = default bound)")
	partial := flag.Bool("partial", false, "refine a non-quiescent (partial) dump: skip the end-of-log quiescence rule")
	out := flag.String("o", "", "output file for -tla (default stdout)")
	flag.Parse()

	switch {
	case *list:
		for _, c := range spec.Presets() {
			fmt.Printf("%-14s %d tasks  (cancel=%v, maxInflight=%d)\n",
				c.Name, len(c.Tasks), c.AllowCancel, c.MaxInflight)
		}
		for _, c := range spec.ClusterPresets() {
			fmt.Printf("%-24s %d ops over %d members  (abort=%v, parallel legs=%v, prepare mutex=%v, cluster)\n",
				c.Name, len(c.Ops), c.Members, c.AllowAbort, c.ParallelLegs, c.PrepareMutex)
		}
	case *refine != "":
		runRefine(*refine, *partial)
	case *tla:
		runTLA(*preset, *mutate, *out)
	case *explore && *cluster:
		runClusterExplore(*preset, *mutate, *expectViolation, *maxStates)
	case *explore:
		runExplore(*preset, *mutate, *expectViolation, *maxStates)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// clusterConfigs resolves -preset (empty = all) and applies -mutate for
// cluster mode.
func clusterConfigs(preset, mutate string) []*spec.ClusterConfig {
	var cfgs []*spec.ClusterConfig
	if preset == "" {
		cfgs = spec.ClusterPresets()
	} else {
		c := spec.ClusterPreset(preset)
		if c == nil {
			fmt.Fprintf(os.Stderr, "twe-spec: no cluster preset %q (have: %s)\n",
				preset, strings.Join(spec.ClusterPresetNames(), ", "))
			os.Exit(2)
		}
		cfgs = []*spec.ClusterConfig{c}
	}
	for _, c := range cfgs {
		switch mutate {
		case "":
		case "concurrent-rounds":
			c.Mutations.ConcurrentRounds = true
		case "unordered-prepare":
			c.Mutations.UnorderedPrepare = true
		case "early-commit":
			c.Mutations.EarlyCommit = true
		case "leak-abort":
			c.Mutations.LeakOnAbort = true
		case "prepare-on-foreign-session":
			c.Mutations.PrepareOnForeignSession = true
		case "commit-before-all-acked":
			c.Mutations.CommitBeforeAllAcked = true
		default:
			fmt.Fprintf(os.Stderr, "twe-spec: unknown cluster mutation %q (want concurrent-rounds, unordered-prepare, early-commit, leak-abort, prepare-on-foreign-session, or commit-before-all-acked)\n", mutate)
			os.Exit(2)
		}
	}
	return cfgs
}

func runClusterExplore(preset, mutate string, expectViolation bool, maxStates int) {
	violations := 0
	for _, cfg := range clusterConfigs(preset, mutate) {
		res, err := spec.ClusterExplore(cfg, spec.ExploreOpts{MaxStates: maxStates})
		if err != nil {
			fmt.Fprintf(os.Stderr, "twe-spec: %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-24s %7d states %8d transitions  %v\n",
			cfg.Name, res.States, res.Transitions, res.Elapsed)
		if res.Violation != nil {
			violations++
			fmt.Printf("%s\n", res.Violation)
		}
	}
	if expectViolation {
		if violations == 0 {
			fmt.Fprintln(os.Stderr, "twe-spec: expected a violation, found none — the mutation went uncaught")
			os.Exit(1)
		}
		fmt.Printf("mutation caught (%d violation(s))\n", violations)
		return
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// configs resolves -preset (empty = all) and applies -mutate.
func configs(preset, mutate string) []*spec.Config {
	var cfgs []*spec.Config
	if preset == "" {
		cfgs = spec.Presets()
	} else {
		c := spec.Preset(preset)
		if c == nil {
			fmt.Fprintf(os.Stderr, "twe-spec: no preset %q (have: %s)\n",
				preset, strings.Join(spec.PresetNames(), ", "))
			os.Exit(2)
		}
		cfgs = []*spec.Config{c}
	}
	for _, c := range cfgs {
		switch mutate {
		case "":
		case "skip-conflict":
			c.Mutations.SkipConflictCheck = true
		case "skip-register":
			c.Mutations.SkipRegisterBeforeEnable = true
		case "leak-cancel":
			c.Mutations.LeakOnCancel = true
		default:
			fmt.Fprintf(os.Stderr, "twe-spec: unknown mutation %q (want skip-conflict, skip-register, or leak-cancel)\n", mutate)
			os.Exit(2)
		}
	}
	return cfgs
}

func runExplore(preset, mutate string, expectViolation bool, maxStates int) {
	violations := 0
	for _, cfg := range configs(preset, mutate) {
		res, err := spec.Explore(cfg, spec.ExploreOpts{MaxStates: maxStates})
		if err != nil {
			fmt.Fprintf(os.Stderr, "twe-spec: %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %7d states %8d transitions  %v\n",
			cfg.Name, res.States, res.Transitions, res.Elapsed)
		if res.Violation != nil {
			violations++
			fmt.Printf("%s\n", res.Violation)
		}
	}
	if expectViolation {
		if violations == 0 {
			fmt.Fprintln(os.Stderr, "twe-spec: expected a violation, found none — the mutation went uncaught")
			os.Exit(1)
		}
		fmt.Printf("mutation caught (%d violation(s))\n", violations)
		return
	}
	if violations > 0 {
		os.Exit(1)
	}
}

func runTLA(preset, mutate, out string) {
	cfgs := configs(preset, mutate)
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "twe-spec: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	for _, cfg := range cfgs {
		if err := spec.WriteTLA(w, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "twe-spec: %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
	}
}

func runRefine(path string, partial bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twe-spec: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	log, err := spec.ReadLog(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twe-spec: %v\n", err)
		os.Exit(1)
	}
	errs, err := spec.Refine(log, spec.RefineOpts{Strict: !partial})
	if err != nil {
		fmt.Fprintf(os.Stderr, "twe-spec: %v\n", err)
		os.Exit(1)
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Printf("%s\n", e)
		}
		fmt.Fprintf(os.Stderr, "twe-spec: %s: %d refinement violation(s) across %d events, %d tasks\n",
			path, len(errs), len(log.Events), len(log.Tasks))
		os.Exit(1)
	}
	fmt.Printf("%s: ok — %d events over %d tasks are a behavior of the admission model\n",
		path, len(log.Events), len(log.Tasks))
}
