package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// errWorse makes -compare exit non-zero when any pair regressed.
var errWorse = errors.New("at least one workload × metric pair is worse than its bound allows")

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(v, n=4) and statistics.median give
// them (the driver's arithmetic): the quartiles sit at positions (n+1)/4
// and 3(n+1)/4 of the sorted values, interpolated.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(pos float64) float64 { // 1-based, fractional
		lo := min(max(int(pos), 1), n-1)
		frac := pos - float64(lo)
		return s[lo-1] + (s[lo]-s[lo-1])*frac
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(float64(n+1) / 4), med, at(3 * float64(n+1) / 4)
}

func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, nil
}

// compareFiles prints one row per workload × end-to-end metric of two
// results files written with -out: both medians with their quartiles, the
// ratio with its base, and a verdict. A pair whose run-to-run spread
// (quartile distance over median, on either side) is wider than the
// metric's bound is unresolved, not unchanged; so is a pair with fewer than
// three runs on a side.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	olds, err := loadRuns(oldPath)
	if err != nil {
		return err
	}
	news, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-26s %-34s %-34s %-28s %s\n", "workload", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "new/old (base)", "verdict")
	worse := false
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			o, n := olds[wl][d.Name], news[wl][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict := "unresolved (fewer than 3 runs)"
			oq1, om, oq3 := o[0], o[0], o[0]
			nq1, nm, nq3 := n[0], n[0], n[0]
			if len(o) >= 2 {
				oq1, om, oq3 = quartiles(o)
			}
			if len(n) >= 2 {
				nq1, nm, nq3 = quartiles(n)
			}
			if len(o) >= 3 && len(n) >= 3 {
				change := (nm - om) / om // positive is worse
				if d.Better == "higher" {
					change = -change
				}
				switch spread := max((oq3-oq1)/om, (nq3-nq1)/nm); {
				case spread > d.Bound:
					verdict = fmt.Sprintf("unresolved (spread %.3f > bound %.2f)", spread, d.Bound)
				case change > d.Bound:
					verdict = "worse"
					worse = true
				case change < -d.Bound:
					verdict = "better"
				default:
					verdict = "same"
				}
			}
			fmt.Fprintf(w, "%-16s %-26s %-34s %-34s %-28s %s\n", wl, d.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", om, oq1, oq3, len(o)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", nm, nq1, nq3, len(n)),
				fmt.Sprintf("%.4f (of %.5g %s)", nm/om, om, d.Unit), verdict)
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
