package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain compares two result records: every exact count is reported
// as same or changed, bit for bit; every timing with samples on both
// sides gets a verdict only when the two interquartile ranges separate.
// It exits 1 when any exact count changed and 2 on a usage error.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]Record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	changed, err := compare(os.Stdout, &recs[0], &recs[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if changed {
		return 1
	}
	return 0
}

// compare writes the report and returns whether an exact count changed.
func compare(w io.Writer, old, cur *Record) (bool, error) {
	if old.Workload != cur.Workload {
		return false, fmt.Errorf("workloads differ: %s vs %s", old.Workload, cur.Workload)
	}
	fmt.Fprintf(w, "workload %s: old seed %d size %s, new seed %d size %s\n",
		old.Workload, old.Seed, old.Size, cur.Seed, cur.Size)
	if old.Seed != cur.Seed || old.Size != cur.Size {
		fmt.Fprintln(w, "note: seeds or sizes differ, so exact counts are expected to differ")
	}
	names := sortedKeys(old.Metrics)
	for _, n := range sortedKeys(cur.Metrics) {
		if _, ok := old.Metrics[n]; !ok {
			names = append(names, n)
		}
	}

	changed := false
	fmt.Fprintln(w, "\nexact counts:")
	for _, n := range names {
		o, inOld := old.Metrics[n]
		c, inNew := cur.Metrics[n]
		if !(o.Exact || c.Exact) {
			continue
		}
		switch {
		case !inOld || !inNew:
			changed = true
			fmt.Fprintf(w, "  %-36s only in %s\n", n, map[bool]string{true: "old", false: "new"}[inOld])
		case o.Value != c.Value:
			changed = true
			fmt.Fprintf(w, "  %-36s %v -> %v %s  CHANGED by %+v\n", n, o.Value, c.Value, c.Unit, c.Value-o.Value)
		default:
			fmt.Fprintf(w, "  %-36s %v %s  same\n", n, c.Value, c.Unit)
		}
	}

	fmt.Fprintln(w, "\ntimings and rates:")
	for _, n := range names {
		o, inOld := old.Metrics[n]
		c, inNew := cur.Metrics[n]
		if o.Exact || c.Exact || !inOld || !inNew {
			continue
		}
		fmt.Fprintf(w, "  %-36s %s -> %s %s  %s\n", n, formatValue(o.Value), formatValue(c.Value), c.Unit, verdict(o, c))
	}
	return changed, nil
}

// verdict judges a timing: better or worse only when the new samples'
// interquartile range lies wholly on one side of the old one's.
func verdict(o, c Metric) string {
	rel := ""
	if o.Value != 0 {
		rel = fmt.Sprintf("(%+.1f%%) ", 100*(c.Value-o.Value)/math.Abs(o.Value))
	}
	if len(o.Samples) < 4 || len(c.Samples) < 4 {
		return rel + "single value, no verdict"
	}
	oq1, oq3 := quantile(o.Samples, 0.25), quantile(o.Samples, 0.75)
	cq1, cq3 := quantile(c.Samples, 0.25), quantile(c.Samples, 0.75)
	var higher bool
	switch {
	case cq1 > oq3:
		higher = true
	case cq3 < oq1:
		higher = false
	default:
		return rel + "IQRs overlap, unresolved"
	}
	if higher == higherIsBetter(c.Unit) {
		return rel + "better"
	}
	return rel + "WORSE"
}

// higherIsBetter reports the direction of a unit: rates are better
// higher, times, sizes and ratios lower.
func higherIsBetter(unit string) bool {
	return unit == "1/s" || unit == "MiB/s"
}
