package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per workload and end-to-end metric, both values,
// the relative difference and the bound, taking A as the parent and B as
// the change. It reports false when any metric worsened beyond its bound.
// A metric whose own window spread, on either side, is wider than the
// bound is marked unresolved: the difference cannot be told from noise,
// so it is neither a regression nor "unchanged".
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	if a.Header.Executor != b.Header.Executor || a.Header.DirectIO != b.Header.DirectIO {
		fmt.Fprintf(w, "NOT COMPARABLE: executor/direct_io differ (%s/%s vs %s/%s); the two documents measured different I/O paths\n",
			a.Header.Executor, a.Header.DirectIO, b.Header.Executor, b.Header.DirectIO)
	}
	ok := true
	for _, wa := range a.Workloads {
		var wb *workloadEntry
		for _, e := range b.Workloads {
			if e.Name == wa.Name {
				wb = e
			}
		}
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-22s %12s %12s %8s %7s  %s\n", wa.Name, "metric", "A", "B", "diff", "bound", "verdict")
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd.Metrics[d.Name], wb.EndToEnd.Metrics[d.Name]
			diff := ratio(mb.Value-ma.Value, ma.Value)
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			verdict := "within bound"
			switch {
			case max(ma.spread(), mb.spread()) > d.Bound:
				verdict = fmt.Sprintf("unresolved (window spread %.1f%% / %.1f%%)", 100*ma.spread(), 100*mb.spread())
			case worse > d.Bound:
				verdict = "REGRESSION"
				ok = false
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "  %-22s %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n", d.Name, ma.Value, mb.Value, 100*diff, 100*d.Bound, verdict)
		}
		if fa, fb := wa.EndToEnd.Failed, wb.EndToEnd.Failed; fa != 0 || fb != 0 {
			fmt.Fprintf(w, "  failed requests: %d vs %d; any failure is a regression\n", fa, fb)
			ok = false
		}
	}
	return ok, nil
}
