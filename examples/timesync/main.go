// Timesync: show the clock-shift problem the reference badge solves — each
// badge's crystal drifts, the overnight exchanges at the charging station
// observe it, and rectification brings all timelines onto mission time.
//
//	go run ./examples/timesync
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"icares"
	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/timesync"
)

func main() {
	m, err := icares.Simulate(icares.Options{Seed: 3, Days: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Estimate each badge's correction from its sync records, which the
	// dataset holds on the badge's local clock.
	ds := m.Result().Dataset
	type row struct {
		id  store.BadgeID
		cor timesync.Correction
	}
	var rows []row
	for _, id := range ds.Badges() {
		c, err := timesync.EstimateFromRecords(ds.Series(id).All())
		if err != nil {
			continue
		}
		rows = append(rows, row{id: id, cor: c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	fmt.Println("per-badge clock corrections estimated from overnight sync exchanges:")
	fmt.Printf("%7s %14s %10s %12s %6s\n", "badge", "offset", "skew", "residual", "obs")
	for _, r := range rows {
		fmt.Printf("%7d %14s %7.1fppm %12s %6d\n",
			r.id, r.cor.Offset.Round(time.Microsecond),
			r.cor.Skew*1e6, r.cor.Residual.Round(time.Microsecond), r.cor.N)
	}

	// Clock shift between two badges at mission end — the quantity the
	// paper computes to compare sensor readings across devices.
	if len(rows) >= 2 {
		end := m.Horizon()
		shift := timesync.ShiftBetween(rows[0].cor, rows[1].cor, end)
		fmt.Printf("\nshift between badges %d and %d at mission end: %v\n",
			rows[0].id, rows[1].id, shift.Round(time.Millisecond))
	}

	// Rectification quality: re-estimating on the sync records mapped to
	// reference time by the pipeline's corrections must yield near-identity
	// corrections. The pipeline maps as it reads; the dataset itself stays
	// on local clocks.
	pipe, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		log.Fatal(err)
	}
	cors, err := pipe.RectifyClocks()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter rectification (re-estimated on the mapped sync records):")
	worst := time.Duration(0)
	for _, id := range ds.Badges() {
		var mapped []record.Record
		for _, r := range ds.Series(id).Kind(record.KindSync) {
			r.Local = cors[id].ToReference(r.Local)
			mapped = append(mapped, r)
		}
		c, err := timesync.EstimateFromRecords(mapped)
		if err != nil {
			continue
		}
		if c.Offset < 0 {
			c.Offset = -c.Offset
		}
		if c.Offset > worst {
			worst = c.Offset
		}
	}
	fmt.Printf("worst residual offset across badges: %v\n", worst.Round(time.Microsecond))
}
