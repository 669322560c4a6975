package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of comparing a metric between a baseline report A and a report B.
const (
	better      = "better"       // B's median beats A's by more than the spread
	worse       = "worse"        // B's median is worse than A's by more than the bound
	withinBound = "within-bound" // neither
	unresolved  = "unresolved"   // the spread is wider than the bound: no verdict
)

// verdict compares two lower-is-better metrics. The spread is the larger of
// the two IQRs as a share of its median.
func verdict(a, b metric, bound float64) string {
	spread := max(a.IQR/a.Value, b.IQR/b.Value)
	change := (b.Value - a.Value) / a.Value
	switch {
	case spread > bound:
		return unresolved
	case change > bound:
		return worse
	case change < -spread:
		return better
	default:
		return withinBound
	}
}

// checkComparable refuses pairs of reports whose numbers mean different things.
func checkComparable(a, b hostStamp) error {
	switch {
	case a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("not comparable: procs differ (nproc %d GOMAXPROCS %d vs nproc %d GOMAXPROCS %d)", a.NumCPU, a.GOMAXPROCS, b.NumCPU, b.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Errorf("not comparable: seeds differ (%d vs %d)", a.Seed, b.Seed)
	case a.Scale != b.Scale:
		return fmt.Errorf("not comparable: scales differ (%d vs %d)", a.Scale, b.Scale)
	}
	return nil
}

func readReport(path string) (fullReport, error) {
	var r fullReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints a verdict for every end-to-end metric of every
// workload present in both reports.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if err := checkComparable(a.Host, b.Host); err != nil {
		return err
	}
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Name != rb.Name {
				continue
			}
			for _, name := range endToEnd {
				ma, okA := ra.Metrics[name]
				mb, okB := rb.Metrics[name]
				if !okA || !okB {
					continue
				}
				fmt.Fprintf(w, "%-20s %-8s %10.6g -> %10.6g %s  %+6.1f%%  %s\n", ra.Name, name, ma.Value, mb.Value, ma.Unit,
					100*(mb.Value-ma.Value)/ma.Value, verdict(ma, mb, bounds[name]))
			}
			if rb.Failed > 0 {
				fmt.Fprintf(w, "%-20s %d of %d ops failed in %s\n", rb.Name, rb.Failed, rb.Attempted, pathB)
			}
		}
	}
	return nil
}
