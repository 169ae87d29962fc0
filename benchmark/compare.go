package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// compareFiles applies each end-to-end metric's bound from
// BENCHMARK.json to two sets of runs (a = before, b = after) and prints
// one row per (metric, workload): same, better, worse, or unresolved
// when either side's own quartile spread is wider than the bound. It
// returns an error when any row is worse.
func compareFiles(w io.Writer, bm *benchmarkFile, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	va, vb := valuesByKey(a), valuesByKey(b)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian a\tmedian b\tchange\tspread a\tspread b\tbound\tverdict")
	worse := 0
	for _, wl := range bm.Workloads {
		for _, d := range bm.EndToEnd {
			key := wl.Name + "/" + d.Name
			xa, xb := va[key], vb[key]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := medianF(xa), medianF(xb)
			// change > 0 means b is worse than a.
			change := ratio(mb-ma, math.Abs(ma))
			if d.Better == "higher" {
				change = -change
			}
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict := "same"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			case change < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, ma, mb, 100*change, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs got worse by more than their bound", worse)
	}
	return nil
}

// valuesByKey collects the untraced runs' values per "workload/metric".
func valuesByKey(f *resultFile) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		for _, m := range r.Metrics {
			key := r.Workload + "/" + m.Name
			out[key] = append(out[key], m.Value)
		}
	}
	return out
}
