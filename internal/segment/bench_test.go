package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// The benchmarks pin the numbers the segment store exists for: ingest
// throughput into the compressed form, bytes on disk against the framed
// encoding (the compression ratio), cold out-of-core query latency (open +
// seek + decode just the needed blocks), and the warm zero-alloc iterator.

const segBenchN = 200_000

var (
	segBenchOnce   sync.Once
	segBenchRecs   []record.Record
	segBenchFramed int64
)

// segBenchRecords returns a shared badge-shaped day of traffic: regular
// accel/mic ticks plus jittered beacon and neighbor sightings, and the total
// framed (log) encoding size to hold the segment size against.
func segBenchRecords() ([]record.Record, int64) {
	segBenchOnce.Do(func() {
		rng := stats.NewRNG(3)
		recs := make([]record.Record, 0, segBenchN)
		at := time.Duration(0)
		for len(recs) < segBenchN {
			at += 200 * time.Millisecond
			recs = append(recs, record.Record{Local: at, Kind: record.KindAccel,
				AX: int16(rng.Intn(400) - 200), AY: int16(rng.Intn(400) - 200), AZ: int16(1000 + rng.Intn(60) - 30)})
			if rng.Bool(0.3) {
				recs = append(recs, record.Record{Local: at + time.Duration(rng.Intn(5e7)), Kind: record.KindBeacon,
					PeerID: uint16(rng.Intn(16) + 1), RSSI: float32(rng.Range(-90, -40))})
			}
			if rng.Bool(0.2) {
				recs = append(recs, record.Record{Local: at + time.Duration(5e7+rng.Intn(5e7)), Kind: record.KindMic,
					SpeechDetected: rng.Bool(0.3), LoudnessDB: float32(rng.Range(35, 75))})
			}
		}
		for _, r := range recs {
			n, err := record.EncodedSize(r)
			if err != nil {
				panic(err)
			}
			segBenchFramed += int64(n)
		}
		segBenchRecs = recs
	})
	return segBenchRecs, segBenchFramed
}

// BenchmarkWriterIngest measures compression throughput: records in, segment
// bytes out. bytes_per_record and ratio_vs_framed are the size side of the
// same run.
func BenchmarkWriterIngest(b *testing.B) {
	recs, framed := segBenchRecords()
	var raw []byte
	b.SetBytes(framed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		sw, err := NewWriter(&buf, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := sw.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Finish(); err != nil {
			b.Fatal(err)
		}
		raw = buf.Bytes()
	}
	b.ReportMetric(float64(len(raw))/float64(len(recs)), "bytes/record")
	b.ReportMetric(float64(framed)/float64(len(raw)), "ratio_vs_framed")
}

// benchSegFile writes the shared records to a real file once per process.
var (
	segFileOnce sync.Once
	segFilePath string
)

func benchSegFile(b *testing.B) string {
	segFileOnce.Do(func() {
		recs, _ := segBenchRecords()
		dir, err := os.MkdirTemp("", "segbench")
		if err != nil {
			b.Fatal(err)
		}
		segFilePath = filepath.Join(dir, "badge-001.seg")
		f, err := os.Create(segFilePath)
		if err != nil {
			b.Fatal(err)
		}
		sw, err := NewWriter(f, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := sw.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Finish(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	})
	return segFilePath
}

// BenchmarkColdRangeKind is the out-of-core promise: open the file, answer
// one hour-wide RangeKind, close — touching only the blocks the index says
// hold the window, never the whole file.
func BenchmarkColdRangeKind(b *testing.B) {
	path := benchSegFile(b)
	recs, _ := segBenchRecords()
	mid := recs[len(recs)/2].Local
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(drain(rd.Iter(mid, mid+time.Hour, record.KindBeacon))) == 0 {
			b.Fatal("empty range")
		}
		rd.Close()
	}
}

// BenchmarkWarmIter measures the steady-state scan path over cached blocks:
// it must stay zero-alloc per record.
func BenchmarkWarmIter(b *testing.B) {
	path := benchSegFile(b)
	rd, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	rd.SetCacheBlocks(rd.Blocks()) // everything cache-resident: decode cost excluded
	recs, _ := segBenchRecords()
	from, to := recs[0].Local, recs[len(recs)-1].Local+1
	it := rd.Iter(from, to, 0)
	for it.Next() { // prime the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		it := rd.Iter(from, to, 0)
		for it.Next() {
			n++
		}
		if n != len(recs) {
			b.Fatalf("iterated %d of %d", n, len(recs))
		}
	}
}
