package segment

import (
	"testing"

	"icares/internal/record"
	"icares/internal/stats"
)

// TestCountersAgreeAfterCorruptDrop pins the reader's lazily consistent
// counters. Before any block is decoded they answer from the index (the
// damage is not yet known); after a full scan that touched every block,
// Len() equals the number of records the scan returned, Dropped() reports
// the lost records, and per-kind scans agree kind by kind with the full
// scan.
func TestCountersAgreeAfterCorruptDrop(t *testing.T) {
	recs := randRecords(stats.NewRNG(17), 1000)
	raw := writeSegment(t, 3, 100, recs)
	rd0 := openBytes(t, raw)
	off := rd0.blocks[4].offset + rd0.blocks[4].length/2
	mut := append([]byte(nil), raw...)
	mut[off] ^= 0x40

	rd := openBytes(t, mut)
	// Index-only answers before any block is touched.
	if rd.Len() != 1000 {
		t.Fatalf("pre-scan Len() = %d, want index total 1000", rd.Len())
	}
	if rd.Dropped() != 0 || rd.CorruptBlocks() != 0 {
		t.Fatalf("pre-scan Dropped=%d CorruptBlocks=%d, want 0,0", rd.Dropped(), rd.CorruptBlocks())
	}

	all := drainAll(rd)
	if rd.Len() != len(all) {
		t.Fatalf("post-scan Len() = %d disagrees with the full scan's %d records", rd.Len(), len(all))
	}
	if rd.Dropped() != 100 {
		t.Fatalf("Dropped() = %d, want the corrupt block's 100 records", rd.Dropped())
	}
	if rd.CorruptBlocks() != 1 {
		t.Fatalf("CorruptBlocks() = %d, want 1", rd.CorruptBlocks())
	}

	actual := make(map[record.Kind]int)
	for _, r := range all {
		actual[r.Kind]++
	}
	// Per-kind scans prune blocks by the index's kind counts; they must
	// agree kind by kind with what the full scan returned.
	for k := record.KindAccel; k <= record.KindBattery; k++ {
		if got := len(drain(rd.Iter(minT, maxT, k))); got != actual[k] {
			t.Errorf("len(Kind(%v)) = %d, want %d surviving", k, got, actual[k])
		}
	}

	// Idempotent: re-scans neither recount nor resurrect the block.
	drainAll(rd)
	if rd.Len() != len(all) || rd.Dropped() != 100 || rd.CorruptBlocks() != 1 {
		t.Fatalf("re-scan changed counters: Len=%d Dropped=%d CorruptBlocks=%d",
			rd.Len(), rd.Dropped(), rd.CorruptBlocks())
	}
}
