package sched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"twe/internal/sched"
)

// harnessSchema is the benchmark harness file that lists the scheduler
// names its ladder launches as `twe-serve -sched NAME`.
const harnessSchema = "../../benchmark/schema.go"

// TestHarnessSchedNamesKnown: every name in the benchmark harness's
// schedNames resolves in the registry. A daemon given an unknown -sched
// name exits before it listens, which aborts the harness's traced run, so
// a registry change that drops a name the harness launches must fail here
// first.
func TestHarnessSchedNamesKnown(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, harnessSchema, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", harnessSchema, err)
	}
	var lit *ast.CompositeLit
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return lit == nil
		}
		for i, id := range vs.Names {
			if id.Name == "schedNames" && i < len(vs.Values) {
				lit, _ = vs.Values[i].(*ast.CompositeLit)
			}
		}
		return false
	})
	if lit == nil || len(lit.Elts) == 0 {
		t.Fatalf("%s: no non-empty `var schedNames = []string{...}` found", harnessSchema)
	}
	for _, elt := range lit.Elts {
		bl, ok := elt.(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			t.Fatalf("%s: schedNames entry is not a string literal", fset.Position(elt.Pos()))
		}
		name, err := strconv.Unquote(bl.Value)
		if err != nil {
			t.Fatalf("%s: %v", fset.Position(elt.Pos()), err)
		}
		if !sched.Known(name) {
			t.Errorf("%s: schedNames entry %q is not a registered scheduler (have: %s)",
				harnessSchema, name, sched.Usage())
		}
	}
}
