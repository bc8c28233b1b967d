package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// verdict is the comparator's judgement of one workload × metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"  // new median worse than base by more than the bound
	verdictUnresolved verdict = "unresolved" // run-to-run spread wider than the bound: the medians decide nothing
)

// minSpreadRuns is how many runs a side needs before its spread means
// anything; quartiles of fewer are the extremes themselves.
const minSpreadRuns = 4

// comparison is one row of the comparator's table.
type comparison struct {
	Workload, Metric      string
	Base, New             float64 // medians
	Ratio                 float64 // New / Base
	Worsening             float64 // share of Base by which New is worse; negative = better
	Bound                 float64
	SpreadBase, SpreadNew float64 // NaN when a side has too few runs
	Verdict               verdict
	RunsBase, RunsNew     int
	// fail_ratio row only: the counts behind Base and New.
	FailedBase, FailedNew       int64
	AttemptedBase, AttemptedNew int64
}

// judge compares one metric's runs. The spread is checked first: when
// either side scatters more than the bound, a difference of medians
// within that scatter is not evidence either way.
func judge(def metricDef, base, new []float64) comparison {
	c := comparison{Metric: def.Name, Bound: def.Bound, Base: median(base), New: median(new),
		SpreadBase: math.NaN(), SpreadNew: math.NaN(), RunsBase: len(base), RunsNew: len(new), Verdict: verdictOK}
	if c.Base != 0 {
		c.Ratio = c.New / c.Base
		c.Worsening = (c.New - c.Base) / c.Base
		if def.Better == "higher" {
			c.Worsening = -c.Worsening
		}
	}
	if len(base) >= minSpreadRuns {
		c.SpreadBase = spread(base)
	}
	if len(new) >= minSpreadRuns {
		c.SpreadNew = spread(new)
	}
	// setup_s is exempt from the spread gate, as in the contract: it is
	// a median of three short set-ups and is given the widest bound.
	wide := def.Name != "setup_s" && (c.SpreadBase > def.Bound || c.SpreadNew > def.Bound)
	switch {
	case wide:
		c.Verdict = verdictUnresolved
	case c.Worsening > def.Bound:
		c.Verdict = verdictRegressed
	}
	return c
}

// compareReports judges every workload × end-to-end metric the two
// reports share, and the failure counts: those may not rise at all.
func compareReports(base, new *report) []comparison {
	var rows []comparison
	for _, wb := range base.Workloads {
		var wn *workloadRun
		for _, w := range new.Workloads {
			if w.Spec.Name == wb.Spec.Name {
				wn = w
			}
		}
		if wn == nil {
			continue
		}
		for _, def := range endToEnd {
			vb, vn := wb.values(def.Name), wn.values(def.Name)
			if len(vb) == 0 || len(vn) == 0 {
				continue
			}
			c := judge(def, vb, vn)
			c.Workload = wb.Spec.Name
			rows = append(rows, c)
		}
		f := comparison{Workload: wb.Spec.Name, Metric: "fail_ratio", Verdict: verdictOK,
			SpreadBase: math.NaN(), SpreadNew: math.NaN(), RunsBase: len(wb.Runs), RunsNew: len(wn.Runs)}
		for _, r := range wb.Runs {
			f.FailedBase, f.AttemptedBase = f.FailedBase+r.Failed, f.AttemptedBase+r.Attempted
		}
		for _, r := range wn.Runs {
			f.FailedNew, f.AttemptedNew = f.FailedNew+r.Failed, f.AttemptedNew+r.Attempted
		}
		f.Base = ratio(float64(f.FailedBase), float64(f.AttemptedBase))
		f.New = ratio(float64(f.FailedNew), float64(f.AttemptedNew))
		if f.New > f.Base {
			f.Verdict = verdictRegressed
		}
		rows = append(rows, f)
	}
	return rows
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}

// runCompare prints the table and returns the process exit code: 0 when
// every row is ok, 1 otherwise.
func runCompare(basePath, newPath string) int {
	base, err := readReport(basePath)
	if err != nil {
		fatalf("%v", err)
	}
	new, err := readReport(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("base %s: git %s, %d run(s) per workload from seed %d, %d s each\n", basePath, base.Host.GitSHA, base.Reps, base.Seed, base.Seconds)
	fmt.Printf("new  %s: git %s, %d run(s) per workload from seed %d, %d s each\n", newPath, new.Host.GitSHA, new.Reps, new.Seed, new.Seconds)
	if base.Host.CPUs != new.Host.CPUs || base.Host.GoVersion != new.Host.GoVersion || base.Host.Kernel != new.Host.Kernel {
		fmt.Printf("warning: hosts differ (%+v vs %+v); ratios across hosts say little\n", base.Host, new.Host)
	}
	if base.Seconds != new.Seconds || base.Traced != new.Traced {
		fmt.Println("warning: the two reports were measured with different settings")
	}
	rows := compareReports(base, new)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tnew median\tnew/base\tworse by\tbound\tspread base\tspread new\tverdict")
	bad := 0
	for _, c := range rows {
		if c.Metric == "fail_ratio" {
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d\t\t\tmay not rise\t\t\t%s\n", c.Workload, c.Metric,
				c.FailedBase, c.AttemptedBase, c.FailedNew, c.AttemptedNew, c.Verdict)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f\t%s\t%s\t%s\t%s\t%s\n", c.Workload, c.Metric, fmtValue(c.Base), fmtValue(c.New),
				c.Ratio, pct(c.Worsening), pct(c.Bound), pct(c.SpreadBase), pct(c.SpreadNew), c.Verdict)
		}
		if c.Verdict != verdictOK {
			bad++
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Printf("%d row(s) regressed or unresolved\n", bad)
		return 1
	}
	fmt.Println("no row regressed, none unresolved")
	return 0
}
