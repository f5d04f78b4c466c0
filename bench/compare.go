package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// verdict classifies b against a for one metric on one workload:
//
//	unresolved  a's own run-to-run spread (the distance between its
//	            quartiles) is wider than the bound, so a difference of the
//	            bound cannot be told from noise — unless every run of b
//	            reads better than every run of a, which is "better"
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than a's spread
//	same        otherwise
func verdict(m metricSpec, a, b []float64) string {
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0 // positive diff = b worse
	if m.Better == "higher" {
		sign = -1
	}
	diff := sign * (mb - ma)
	if (q3 - q1) > m.Bound*math.Abs(ma) {
		// a and b are sorted ascending.
		allBetter := b[len(b)-1] < a[0]
		if m.Better == "higher" {
			allBetter = b[0] > a[len(a)-1]
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if diff > m.Bound*math.Abs(ma) {
		return "worse"
	}
	if -diff > (q3 - q1) {
		return "better"
	}
	return "same"
}

// opBound is the bound the ungated operation metrics are classified against
// in a comparison: the tenth within which the issue wanted a gated metric
// to repeat. Their rows inform; they never fail a comparison.
const opBound = 0.10

// compareFiles applies the bounds of BENCHMARK.json to two result files. It
// prints one row per workload × end-to-end metric, then one per operation
// metric (not gated), and returns non-zero when any end-to-end row is worse
// or b failed more operations than a.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareResults(spec, a, b, stdout, stderr)
}

func compareResults(spec *benchSpec, a, b *resultFile, stdout, stderr io.Writer) int {
	if a.Meta != b.Meta {
		fmt.Fprintf(stderr, "bench: host fingerprints differ, results are not comparable:\n  a: %+v\n  b: %+v\n", a.Meta, b.Meta)
		return 1
	}
	if a.RunSeconds != b.RunSeconds {
		fmt.Fprintf(stderr, "bench: run lengths differ (%gs vs %gs), results are not comparable\n", a.RunSeconds, b.RunSeconds)
		return 1
	}
	code := 0
	if na, nb := a.invalidRuns(), b.invalidRuns(); na+nb > 0 {
		fmt.Fprintf(stdout, "invalid runs left out: %d of a, %d of b\n", na, nb)
	}
	fmt.Fprintf(stdout, "%-16s %-18s %-10s %12s %25s %12s %25s %7s  %s\n",
		"workload", "metric", "verdict", "a median", "a quartiles", "b median", "b quartiles", "bound", "unit")
	row := func(workload string, m metricSpec, gated bool) {
		va, vb := a.values(workload, m.Name, false), b.values(workload, m.Name, false)
		if len(va) == 0 || len(vb) == 0 {
			fmt.Fprintf(stdout, "%-16s %-18s %-10s\n", workload, m.Name, "missing")
			if gated {
				code = 1
			}
			return
		}
		v := verdict(m, va, vb)
		unit := m.Unit
		if !gated {
			unit += "  (not gated)"
		} else if v == "worse" {
			code = 1
		}
		a1, a2, a3 := quartiles(va)
		b1, b2, b3 := quartiles(vb)
		fmt.Fprintf(stdout, "%-16s %-18s %-10s %12.6g %25s %12.6g %25s %6.0f%%  %s\n",
			workload, m.Name, v, a2, fmt.Sprintf("[%.5g, %.5g]", a1, a3), b2, fmt.Sprintf("[%.5g, %.5g]", b1, b3), 100*m.Bound, unit)
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row(w.Name, m, true)
		}
		for _, m := range spec.opSpecs() {
			if m.Name == "op_tail_pct" {
				continue // says which percentile op_tail_ms is; not a quantity to compare
			}
			m.Bound = opBound
			row(w.Name, m, false)
		}
		fa, fb := failedFrac(a, w.Name), failedFrac(b, w.Name)
		if fb > fa {
			fmt.Fprintf(stdout, "%-16s %-18s %-10s %12.6g %25s %12.6g\n", w.Name, "failed_frac", "worse", fa, "", fb)
			code = 1
		}
	}
	return code
}

// failedFrac is failed ÷ attempted over a workload's untraced runs.
func failedFrac(f *resultFile, workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
