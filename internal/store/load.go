package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"icares/internal/record"
)

// fanOut calls work(i) for every i in [0, n) on a pool of one worker per
// item up to GOMAXPROCS, capped at 8 so a 30-badge dataset on a big
// machine does not open 30 file handles at once for little gain. It
// returns the first error in index order, after every call has finished.
func fanOut(n int, work func(i int) error) error {
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(runtime.GOMAXPROCS(0), n, 8)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// badgeSeries is one badge's series in a dataset snapshot.
type badgeSeries struct {
	id BadgeID
	s  *Series
}

// snapshot returns the dataset's (badge, series) pairs in badge order: the
// work list Save and SaveSegments fan out over.
func (d *Dataset) snapshot() []badgeSeries {
	d.mu.RLock()
	out := make([]badgeSeries, 0, len(d.series))
	for id, s := range d.series {
		out = append(out, badgeSeries{id, s})
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Save writes one log file per badge into dir, creating it if needed. The
// badge files are written concurrently by a bounded worker pool.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save dataset: %w", err)
	}
	jobs := d.snapshot()
	return fanOut(len(jobs), func(i int) error { return saveOne(dir, jobs[i].id, jobs[i].s) })
}

// listFiles returns the names of the regular entries in dir with the given
// extension, sorted.
func listFiles(dir, ext string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ext {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return files, nil
}

func saveOne(dir string, id BadgeID, s *Series) error {
	err := atomicWrite(dir, logFileName(id), func(f *os.File) error {
		lw, err := record.NewLogWriter(f, uint16(id))
		if err != nil {
			return fmt.Errorf("header: %w", err)
		}
		for _, r := range s.All() {
			if err := lw.Append(r); err != nil {
				return fmt.Errorf("append: %w", err)
			}
		}
		return lw.Flush()
	})
	if err != nil {
		return fmt.Errorf("save badge %d: %w", id, err)
	}
	return nil
}

// atomicWrite writes dir/name crash-safely: the payload goes to a
// temporary file in the same directory, is fsynced, and only then renamed
// over the final path — so a crash (or write error) mid-save leaves any
// previous good file untouched instead of a truncated ruin. The directory
// itself is synced best-effort after the rename so the new name is durable
// too.
func atomicWrite(dir, name string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return err
	}
	committed = true
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// BadgeLoadStatus describes how one badge log loaded.
type BadgeLoadStatus struct {
	// File is the log file name within the dataset directory.
	File string
	// Records is how many records were salvaged into the dataset.
	Records int
	// Skipped counts corrupt frames skipped mid-log (SD-card bit rot).
	Skipped int
	// Truncated reports that the log ended mid-frame — the card was pulled
	// or the badge died while a frame was being written. The records
	// before the truncation point are intact and were kept.
	Truncated bool
}

// LoadReport summarizes how a dataset load went: which badges loaded
// cleanly, which were salvaged (truncated tails, skipped frames), and
// which files could not be read at all.
type LoadReport struct {
	// Badges maps each loaded badge to its load status.
	Badges map[BadgeID]BadgeLoadStatus
	// Failed maps unreadable log files (missing or corrupt header) to the
	// error; their badges contribute no records but the rest of the
	// dataset still loads.
	Failed map[string]error
}

// Clean reports whether every badge log loaded fully: no truncated tails,
// no skipped frames, no unreadable files.
func (r *LoadReport) Clean() bool {
	if len(r.Failed) > 0 {
		return false
	}
	for _, st := range r.Badges {
		if st.Truncated || st.Skipped > 0 {
			return false
		}
	}
	return true
}

// loadResult is one parsed badge log, before merging into the dataset.
type loadResult struct {
	id        uint16
	recs      []record.Record
	skipped   int
	truncated bool
	err       error
}

// LoadWithReport reads every badge log in dir into a new dataset, parsing
// badge files concurrently with a bounded worker pool. A truncated tail
// frame (the SD card pulled mid-write) or corrupt frames mid-log keep the
// records read so far and mark the badge in the report; only an unreadable
// directory — or a directory with no loadable badge data at all — fails
// the load.
func LoadWithReport(dir string) (*Dataset, *LoadReport, error) {
	files, err := listFiles(dir, ".icr")
	if err != nil {
		return nil, nil, fmt.Errorf("load dataset: %w", err)
	}
	results := make([]loadResult, len(files))
	fanOut(len(files), func(i int) error {
		results[i] = loadFile(filepath.Join(dir, files[i]))
		return nil // a bad file goes to the report, not to the caller
	})

	d := NewDataset()
	rep := &LoadReport{Badges: make(map[BadgeID]BadgeLoadStatus), Failed: make(map[string]error)}
	// Merge sequentially in file-name order so duplicate badge IDs (and the
	// report) resolve deterministically regardless of worker scheduling.
	for i, name := range files {
		res := results[i]
		if res.err != nil {
			rep.Failed[name] = res.err
			continue
		}
		id := BadgeID(res.id)
		s := d.Series(id)
		for _, r := range res.recs {
			s.Append(r)
		}
		st := rep.Badges[id]
		st.File = name
		st.Records += len(res.recs)
		st.Skipped += res.skipped
		st.Truncated = st.Truncated || res.truncated
		rep.Badges[id] = st
	}
	if len(rep.Badges) == 0 {
		return nil, rep, ErrNoData
	}
	return d, rep, nil
}

// loadFile parses one badge log, keeping everything readable.
func loadFile(path string) loadResult {
	f, err := os.Open(path)
	if err != nil {
		return loadResult{err: fmt.Errorf("open %s: %w", path, err)}
	}
	defer f.Close()
	lr, err := record.NewLogReader(f)
	if err != nil {
		return loadResult{err: fmt.Errorf("read %s: %w", path, err)}
	}
	res := loadResult{id: lr.BadgeID()}
	for {
		rec, err := lr.Next()
		if err != nil {
			if err != io.EOF {
				// A read error below the codec (I/O fault mid-file): keep
				// what was salvaged and treat the rest as truncated.
				res.truncated = true
			}
			res.skipped = lr.Skipped()
			res.truncated = res.truncated || lr.Truncated()
			return res
		}
		res.recs = append(res.recs, rec)
	}
}
