package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// loadSet reads a result set: a directory holding results.json, or the file
// itself.
func loadSet(path string) (*resultSet, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, "results.json")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	if err := json.Unmarshal(buf, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// verdict words of -compare.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare: a workload and an end-to-end metric,
// A's and B's medians, and how B stands against A.
type comparison struct {
	workload, metric, unit string
	medianA, medianB       float64
	spreadA, bound         float64
	// worse is the share of A's median by which B is worse (negative when B
	// is better).
	worse   float64
	verdict string
}

// judge compares B's values of one metric against A's. B regresses when its
// median is worse than A's by more than the bound. When A's own run-to-run
// spread (quartile distance over median) exceeds the bound the instrument
// cannot tell, and the row is unresolved — unless every run of B reads
// better than every run of A.
func judge(d metricDef, a, b []float64) comparison {
	c := comparison{metric: d.name, unit: d.unit, bound: d.bound,
		medianA: median(a), medianB: median(b), spreadA: quartileSpread(a)}
	sign := 1.0 // lower is better
	if d.better == "higher" {
		sign = -1
	}
	if c.medianA != 0 {
		c.worse = sign * (c.medianB - c.medianA) / c.medianA
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, va := range a {
		for _, vb := range b {
			if sign*(vb-va) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.spreadA > d.bound && !allBetter:
		c.verdict = verdictUnresolved
	case c.worse > d.bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictWithin
	}
	return c
}

// failedShare is failed over attempted operations across a workload's
// untraced runs.
func failedShare(runs []*result) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func untracedRuns(set *resultSet, workload string) []*result {
	var out []*result
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

// compareSets prints one row per workload and end-to-end metric and returns
// an error (a non-zero exit) on a regression or a higher failed share in B.
func compareSets(pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (commit %s)\nB: %s (commit %s)\n", pathA, a.Machine.Commit, pathB, b.Machine.Commit)
	fmt.Printf("%-16s %-13s %14s %14s %-5s %18s %9s %6s  %s\n",
		"workload", "metric", "median A", "median B", "unit", "B worse by", "spread A", "bound", "verdict")
	bad := 0
	for _, name := range workloadNames() {
		ra, rb := untracedRuns(a, name), untracedRuns(b, name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			var va, vb []float64
			for _, r := range ra {
				va = append(va, r.Metrics[d.name].Value)
			}
			for _, r := range rb {
				vb = append(vb, r.Metrics[d.name].Value)
			}
			c := judge(d, va, vb)
			fmt.Printf("%-16s %-13s %14.6g %14.6g %-5s %+8.1f%% of %-6.4g %9.3f %6.2f  %s\n",
				name, d.name, c.medianA, c.medianB, d.unit, 100*c.worse, c.medianA, c.spreadA, d.bound, c.verdict)
			if c.verdict == verdictRegressed {
				bad++
			}
		}
		fa, fb := failedShare(ra), failedShare(rb)
		note := ""
		if fb > fa {
			note = "  HIGHER FAILED SHARE"
			bad++
		}
		fmt.Printf("%-16s failed share A %.4f (%d runs), B %.4f (%d runs)%s\n", name, fa, len(ra), fb, len(rb), note)
		// Simulated statistics must not move under a host-side change: the
		// digests of equal seeds are compared exactly.
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed == y.Seed && x.Seconds == y.Seconds && x.ResultDigest != y.ResultDigest {
					fmt.Printf("%-16s result_digest differs at seed %d: every checked output is no longer identical\n", name, x.Seed)
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regression(s) or higher failed share(s) in B", bad)
	}
	return nil
}
