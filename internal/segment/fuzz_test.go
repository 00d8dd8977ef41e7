package segment

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// FuzzReader drives the whole out-of-core read path — index parse, salvage
// scan, block decode, queries — with valid segments plus truncated and
// bit-flipped mutants. Invariants: nothing panics, errors stay in the
// ErrBadSegment/ErrCorrupt family, and whatever opens answers queries
// consistently with its own full scan while the salvage counters account for
// the damage.
func FuzzReader(f *testing.F) {
	rng := stats.NewRNG(99)
	for _, n := range []int{0, 5, 120} {
		for _, bs := range []int{4, 64} {
			raw := writeFuzzSeed(f, n, bs, rng)
			f.Add(append([]byte{}, raw...))
			if len(raw) > 10 {
				f.Add(append([]byte{}, raw[:len(raw)*2/3]...)) // truncated mid-stream
				flipped := append([]byte{}, raw...)
				flipped[len(flipped)/2] ^= 0x04 // bit rot mid-file
				f.Add(flipped)
				flipped2 := append([]byte{}, raw...)
				flipped2[len(flipped2)-3] ^= 0x80 // damaged tail
				f.Add(flipped2)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("ISG1"))
	f.Add([]byte("ISG1\x01\x05\x00\xb1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // huge block length

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrBadSegment) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		defer rd.Close()
		all := drainAll(rd)
		if len(all) != rd.Len() {
			// Len comes from the (possibly salvaged) index; a scan drops blocks
			// whose CRC fails at read time. A mismatch is only legal if the
			// reader actually reported corrupt blocks.
			if rd.CorruptBlocks() == 0 {
				t.Fatalf("full scan = %d records, Len() = %d, no corrupt blocks", len(all), rd.Len())
			}
		}
		for i := 1; i < len(all); i++ {
			if all[i].Local < all[i-1].Local {
				t.Fatal("full scan not time-ordered")
			}
		}
		// Queries over the salvaged view must agree with its own full scan.
		var from, to time.Duration
		if len(all) > 0 {
			from, to = all[0].Local, all[len(all)-1].Local+1
		}
		if got := drain(rd.Iter(from, to, 0)); len(got) != len(all) {
			t.Fatalf("full Range = %d records, All = %d", len(got), len(all))
		}
		if got := drain(rd.Iter(to, from, 0)); to > from && len(got) != 0 {
			t.Fatalf("inverted Range = %d records, want 0", len(got))
		}
		var perKind int
		for k := record.KindAccel; k <= record.KindBattery; k++ {
			perKind += len(drain(rd.Iter(minT, maxT, k)))
		}
		if perKind != len(all) {
			t.Fatalf("kind views hold %d records, All = %d", perKind, len(all))
		}
	})
}

// writeFuzzSeed builds a valid segment for the corpus.
func writeFuzzSeed(f *testing.F, n, blockSize int, rng *stats.RNG) []byte {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, 7, blockSize)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range randRecords(rng, n) {
		if err := sw.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
