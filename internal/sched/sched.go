// Package sched is the single factory through which binaries and
// harnesses construct TWE schedulers by name. Every `-sched` flag in
// cmd/* resolves here, so the set of selectable schedulers — including
// the ablation variant — is defined once instead of being re-switched in
// each main.
//
// The registry maps a stable name to a constructor:
//
//	naive           single-mutex baseline scheduler (DESIGN.md §3)
//	tree            hierarchical effect-tree scheduler (DESIGN.md §5)
//	tree-rootmutex  ablation: tree without the §5.5.2 root RW fast path
//	tree-lockfree   retired name for tree (DESIGN.md §17): the benchmark
//	                harness's scheduler ladder still launches it
//
// Harnesses that need many fresh instances of the same scheduler
// (differential fuzzing, benchmark sweeps) resolve the name once with
// Maker and invoke the returned constructor per run.
package sched

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"twe/internal/core"
	"twe/internal/naive"
	"twe/internal/tree"
)

// Config selects and sizes a scheduler.
type Config struct {
	// Name picks the implementation from the registry; see Names().
	// Empty means "tree".
	Name string

	// PoolSize is the worker-pool parallelism NewRuntime hands to
	// core.NewRuntime; 0 or negative means runtime.GOMAXPROCS(0).
	// New and Maker ignore it — a bare scheduler has no pool.
	PoolSize int
}

type entry struct {
	mk   func() core.Scheduler
	desc string
}

var registry = map[string]entry{
	"naive": {
		mk:   func() core.Scheduler { return naive.New() },
		desc: "single-mutex baseline scheduler",
	},
	"tree": {
		mk:   func() core.Scheduler { return tree.New() },
		desc: "hierarchical effect-tree scheduler",
	},
	"tree-lockfree": {
		mk:   func() core.Scheduler { return tree.New() },
		desc: "retired name for tree, kept because the benchmark's scheduler ladder launches it",
	},
	"tree-rootmutex": {
		mk:   func() core.Scheduler { return tree.NewWithOptions(tree.Options{DisableRootRW: true}) },
		desc: "ablation: tree scheduler without the root read-write fast path",
	},
}

// New constructs the scheduler cfg names. Unknown names error with the
// full list of registered names.
func New(cfg Config) (core.Scheduler, error) {
	mk, err := Maker(cfg)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// Maker resolves cfg.Name to a constructor without building an instance.
func Maker(cfg Config) (func() core.Scheduler, error) {
	name := cfg.Name
	if name == "" {
		name = "tree"
	}
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (want one of: %s)", name, Usage())
	}
	return e.mk, nil
}

// NewRuntime builds the named scheduler and wraps it in a runtime with
// cfg.PoolSize workers. The caller owns the runtime (Shutdown).
func NewRuntime(cfg Config, opts ...core.Option) (*core.Runtime, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	par := cfg.PoolSize
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return core.NewRuntime(s, par, opts...), nil
}

// Known reports whether name resolves in the registry ("" counts: it is
// the default, "tree").
func Known(name string) bool {
	if name == "" {
		return true
	}
	_, ok := registry[name]
	return ok
}

// Names lists every registered scheduler name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns the registry's one-line description for name, or ""
// if the name is unknown.
func Describe(name string) string {
	return registry[name].desc
}

// Usage is the comma-joined name list for -sched flag help and errors.
func Usage() string {
	return strings.Join(Names(), ", ")
}
