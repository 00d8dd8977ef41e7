package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"icares/internal/record"
	"icares/internal/segment"
)

// View is the read contract a sociometric query runs against: the
// in-memory Series and the out-of-core segment.Reader both satisfy it, so
// analyses can be pointed at either a resident dataset or a reopened
// segment directory without caring which. Iter is the one access path
// (k == 0 iterates every kind): per-window folds step it and never
// materialize the stream, which is what keeps resident memory bounded by
// the backend's cache rather than the dataset. Last answers the one
// point query analyses need, the end of a badge's stream.
type View interface {
	Iter(from, to time.Duration, k record.Kind) record.Cursor
	Last() (record.Record, bool)
}

// Viewer is the read-side source abstraction the analysis pipeline runs
// against: the badges present and a View per badge. Dataset (resident) and
// SegmentStore (out-of-core) both satisfy it. View returns ok == false for
// a badge with no data — never a typed-nil View.
type Viewer interface {
	Badges() []BadgeID
	View(id BadgeID) (View, bool)
}

var (
	_ View = (*Series)(nil)
	_ View = (*segment.Reader)(nil)

	_ Viewer = (*Dataset)(nil)
	_ Viewer = (*SegmentStore)(nil)
)

// minDuration/maxDuration span the whole timestamp domain, for full scans
// through the half-open Iter/Range windows.
const (
	minDuration = time.Duration(math.MinInt64)
	maxDuration = time.Duration(math.MaxInt64)
)

// segFileName returns the on-disk segment name of a badge.
func segFileName(id BadgeID) string {
	return fmt.Sprintf("badge-%03d.seg", id)
}

// manifestName is the per-directory sidecar recording save-time dataset
// facts an immutable archive cannot reconstruct from the segments alone.
const manifestName = "manifest.json"

// manifest is the JSON sidecar written next to the segments. FramedBytes
// preserves the dataset's framed-log size for the paper's bytes-per-crew
// accounting. Archives hold records on local clocks like the dataset they
// were saved from; fields an older layout wrote are ignored on decode.
type manifest struct {
	FramedBytes int64 `json:"framed_bytes"`
}

// SaveSegments writes the dataset as one compressed, immutable segment
// file per badge into dir — each badge's sorted series, readable
// out-of-core with OpenSegments. Files are written atomically
// (temp + fsync + rename) through the same bounded fan-out as Save. Saving
// over an existing archive removes the segments of badges the dataset does
// not hold, so the directory reopens as exactly this dataset.
func (d *Dataset) SaveSegments(dir string) error {
	return d.saveSegments(dir, 0)
}

// saveSegments is SaveSegments with an explicit records-per-block size
// (<= 0 selects segment.DefaultBlockSize); tests use it to exercise block
// boundary cases.
func (d *Dataset) saveSegments(dir string, blockSize int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save segments: %w", err)
	}
	jobs := d.snapshot()
	err := fanOut(len(jobs), func(i int) error {
		return saveOneSegment(dir, jobs[i].id, jobs[i].s, blockSize)
	})
	if err != nil {
		return err
	}
	keep := make(map[BadgeID]bool, len(jobs))
	for _, j := range jobs {
		keep[j.id] = true
	}
	if err := removeStaleSegments(dir, keep); err != nil {
		return fmt.Errorf("save segments: %w", err)
	}

	man := manifest{FramedBytes: d.EncodedBytes()}
	err = atomicWrite(dir, manifestName, func(f *os.File) error {
		return json.NewEncoder(f).Encode(man)
	})
	if err != nil {
		return fmt.Errorf("save segments: %w", err)
	}
	return nil
}

// removeStaleSegments deletes the badge segments in dir whose badge is not
// in keep: leftovers of an earlier save over the same directory, which
// OpenSegments would otherwise reopen. Only files named exactly like a
// badge segment are touched.
func removeStaleSegments(dir string, keep map[BadgeID]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var id BadgeID
		if _, err := fmt.Sscanf(e.Name(), "badge-%d.seg", &id); err != nil ||
			e.IsDir() || e.Name() != segFileName(id) || keep[id] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func saveOneSegment(dir string, id BadgeID, s *Series, blockSize int) error {
	err := atomicWrite(dir, segFileName(id), func(f *os.File) error {
		sw, err := segment.NewWriter(f, uint16(id), blockSize)
		if err != nil {
			return err
		}
		for _, r := range s.All() {
			if err := sw.Append(r); err != nil {
				return err
			}
		}
		return sw.Finish()
	})
	if err != nil {
		return fmt.Errorf("save segment badge %d: %w", id, err)
	}
	return nil
}

// SegmentStore is a dataset reopened out-of-core from a segment directory:
// per-badge segment readers answering the same View queries as the
// in-memory store, while keeping only block indexes and a small
// decoded-block cache resident. Safe for concurrent readers.
type SegmentStore struct {
	dir     string
	readers map[BadgeID]*segment.Reader

	// framedBytes comes from the manifest (0 when it is absent or
	// unreadable: framed size unknown).
	framedBytes int64

	// Fallback framed-size accounting when the manifest is missing: one
	// streaming scan over every surviving record, memoized.
	encOnce  sync.Once
	encBytes int64
}

// OpenSegments opens every badge segment in dir for out-of-core reads,
// with the same salvage semantics and report shape as LoadWithReport: a
// segment with a damaged index or damaged blocks contributes what is
// readable and is marked in the report; only an unreadable directory — or
// one with no usable segment data at all — fails the open.
func OpenSegments(dir string) (*SegmentStore, *LoadReport, error) {
	files, err := listFiles(dir, ".seg")
	if err != nil {
		return nil, nil, fmt.Errorf("open segments: %w", err)
	}
	type result struct {
		rd  *segment.Reader
		err error
	}
	results := make([]result, len(files))
	fanOut(len(files), func(i int) error {
		rd, err := segment.Open(filepath.Join(dir, files[i]))
		results[i] = result{rd, err}
		return nil // a bad file goes to the report, not to the caller
	})

	ss := &SegmentStore{dir: dir, readers: make(map[BadgeID]*segment.Reader)}
	rep := &LoadReport{Badges: make(map[BadgeID]BadgeLoadStatus), Failed: make(map[string]error)}
	// Resolve in file-name order so duplicate badge IDs (and the report)
	// come out deterministically regardless of worker scheduling.
	for i, name := range files {
		res := results[i]
		if res.err != nil {
			rep.Failed[name] = res.err
			continue
		}
		id := BadgeID(res.rd.BadgeID())
		if _, dup := ss.readers[id]; dup {
			res.rd.Close()
			rep.Failed[name] = fmt.Errorf("store: duplicate segment for badge %d", id)
			continue
		}
		ss.readers[id] = res.rd
		rep.Badges[id] = BadgeLoadStatus{
			File:      name,
			Records:   res.rd.Len(),
			Skipped:   res.rd.Skipped(),
			Truncated: res.rd.Truncated(),
		}
	}
	if len(rep.Badges) == 0 {
		return nil, rep, ErrNoData
	}
	// Parse the manifest tolerantly: an archive without one (older layout,
	// or the sidecar was lost) still opens, with the framed size recomputed
	// on demand.
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var man manifest
		if json.Unmarshal(data, &man) == nil {
			ss.framedBytes = man.FramedBytes
		}
	}
	return ss, rep, nil
}

// Badges returns the badge IDs present, sorted.
func (ss *SegmentStore) Badges() []BadgeID {
	out := make([]BadgeID, 0, len(ss.readers))
	for id := range ss.readers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Series returns the badge's out-of-core reader, or nil if the badge has
// no segment (unlike Dataset.Series, an immutable store cannot create one).
// The nil is a concrete *segment.Reader — assigning it into a View
// interface yields a non-nil interface whose every call panics. Code
// consuming views must use View instead; Series exists for callers that
// want the reader's segment-specific surface (salvage counters, cache
// sizing).
func (ss *SegmentStore) Series(id BadgeID) *segment.Reader {
	return ss.readers[id]
}

// View returns the badge's read view, or ok == false when the badge has no
// segment. Unlike Series, a miss is never a typed-nil interface.
func (ss *SegmentStore) View(id BadgeID) (View, bool) {
	rd, ok := ss.readers[id]
	if !ok {
		return nil, false
	}
	return rd, true
}

// EncodedBytes returns the dataset's framed-log size — the figure
// corresponding to the paper's "150 GiB of data", matching what
// Dataset.EncodedBytes reported at save time. It answers from the manifest
// when present; otherwise it streams every surviving record once (memoized)
// and sums record.EncodedSize, which equals the in-memory accounting over
// the same records.
func (ss *SegmentStore) EncodedBytes() int64 {
	if ss.framedBytes > 0 {
		return ss.framedBytes
	}
	ss.encOnce.Do(func() {
		var n int64
		for _, rd := range ss.readers {
			it := rd.Iter(minDuration, maxDuration, 0)
			for it.Next() {
				if sz, err := record.EncodedSize(it.Record()); err == nil {
					n += int64(sz)
				}
			}
		}
		ss.encBytes = n
	})
	return ss.encBytes
}

// SetCacheBlocks resizes every reader's decoded-block cache (minimum 1 per
// reader) — the knob bounding the store's resident set.
func (ss *SegmentStore) SetCacheBlocks(n int) {
	for _, rd := range ss.readers {
		rd.SetCacheBlocks(n)
	}
}

// TotalRecords returns the record count across all badges, from the block
// indexes alone.
func (ss *SegmentStore) TotalRecords() int {
	var n int
	for _, rd := range ss.readers {
		n += rd.Len()
	}
	return n
}

// BytesOnDisk returns the total segment file size — the on-disk cost to
// hold against Dataset.EncodedBytes for the compression ratio.
func (ss *SegmentStore) BytesOnDisk() int64 {
	var n int64
	for _, rd := range ss.readers {
		n += rd.BytesOnDisk()
	}
	return n
}

// CorruptBlocks returns how many blocks across the store failed their CRC
// at query time so far.
func (ss *SegmentStore) CorruptBlocks() int64 {
	var n int64
	for _, rd := range ss.readers {
		n += rd.CorruptBlocks()
	}
	return n
}

// Close releases every badge segment file.
func (ss *SegmentStore) Close() error {
	var first error
	for _, rd := range ss.readers {
		if err := rd.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
