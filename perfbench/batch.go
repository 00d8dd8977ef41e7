package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"icares"
	"icares/internal/record"
	"icares/internal/segment"
	"icares/internal/sociometry"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// layerTimes collects one sample per traced call, keyed by per-layer
// metric name.
type layerTimes map[string][]float64

func (l layerTimes) add(name string, v float64) { l[name] = append(l[name], v) }

// last returns the latest sample of name.
func (l layerTimes) last(name string) float64 { return l[name][len(l[name])-1] }

// allocBytes reads the cumulative heap allocation counter without
// stopping the world.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

const mib = 1 << 20

// cpuTime is the process's user plus system CPU time so far, in seconds.
// Unlike wall time, it leaves out time the host withheld from this
// machine's CPUs.
func cpuTime() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stopwatch measures wall and CPU seconds from its start.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), cpuTime() - s.cpu
}

// simulate runs one mission, traced as the mission layer.
func simulate(c *runConfig, tr *tracer, iter, parent int, lt layerTimes, seed uint64, days int) (*icares.Mission, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	var m *icares.Mission
	var err error
	a0 := allocBytes()
	tr.timed(lt, iter, parent, "mission.run", func() {
		m, err = icares.Simulate(icares.Options{Seed: seed, Days: days, Tick: c.size.Tick, Telemetry: reg})
	})
	if err != nil {
		return nil, nil, err
	}
	if tr.on {
		lt.add("mission.ns_per_record", lt.last("mission.run_s")*1e9/reg.Gauge("mission_records").Value())
		lt.add("mission.alloc_mib", float64(allocBytes()-a0)/mib)
	}
	return m, reg, nil
}

// missionCounts records the simulator's exact counts from its registry.
func missionCounts(rec *Record, reg *telemetry.Registry) {
	rec.count("mission.records", reg.Gauge("mission_records").Value(), "count")
	rec.count("mission.ticks", sumMetric(reg, "mission_ticks_total", ""), "count")
}

// report renders p's Table I report. Traced, the memoized derivations are
// filled stage by stage first — each stage fanned across the crew like
// Pipeline.Warm does — so each stage gets its own span; the render then
// runs from the caches.
func report(p *sociometry.Pipeline, tr *tracer, iter, parent int, lt layerTimes, variant string) string {
	if !tr.on {
		return p.Report()
	}
	prefix := "sociometry." + variant
	root := tr.begin(iter, parent, prefix)
	a0 := allocBytes()
	names := p.Source().Names
	stage := func(name string, fn func(string)) {
		tr.timed(lt, iter, root, prefix+"."+name, func() { forEachParallel(names, fn) })
	}
	stage("track", func(n string) { p.Track(n) })
	stage("intervals", func(n string) { p.Intervals(n) })
	stage("frames", func(n string) { p.Frames(n) })
	var out string
	tr.timed(lt, iter, root, prefix+".render", func() { out = p.Report() })
	lt.add(prefix+".report_alloc_mib", float64(allocBytes()-a0)/mib)
	tr.end(root)
	return out
}

// forEachParallel runs fn over names on GOMAXPROCS workers.
func forEachParallel(names []string, fn func(string)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(names))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				fn(names[i])
			}
		}()
	}
	wg.Wait()
}

// archiveStats are the exact counts of one segment archive.
type archiveStats struct {
	bytesOnDisk, records int64
	blocks, blocksMax    int
	corrupt              int64
}

func statsOf(ss *store.SegmentStore) archiveStats {
	st := archiveStats{bytesOnDisk: ss.BytesOnDisk(), records: int64(ss.TotalRecords()), corrupt: ss.CorruptBlocks()}
	for _, id := range ss.Badges() {
		n := ss.Series(id).Blocks()
		st.blocks += n
		st.blocksMax = max(st.blocksMax, n)
	}
	return st
}

func (st archiveStats) record(rec *Record, framed int64) {
	rec.count("store.framed_bytes", float64(framed), "bytes")
	rec.count("segment.bytes_on_disk", float64(st.bytesOnDisk), "bytes")
	rec.count("segment.blocks", float64(st.blocks), "count")
	rec.count("segment.blocks_per_badge_max", float64(st.blocksMax), "count")
	rec.count("segment.corrupt_blocks", float64(st.corrupt), "count")
	rec.count("disk_bytes_per_framed_byte", float64(st.bytesOnDisk)/float64(framed), "ratio")
	rec.check("segment.corrupt_blocks==0", st.corrupt == 0, fmt.Sprintf("%d corrupt blocks", st.corrupt))
}

// archiveReport reopens dir on a cold block cache and renders its report:
// OpenSegments → ArchivePipeline → Report → Close.
func archiveReport(tr *tracer, iter, parent int, lt layerTimes, dir string, days int) (string, archiveStats, error) {
	var ss *store.SegmentStore
	var err error
	tr.timed(lt, iter, parent, "store.open_segments", func() { ss, _, err = store.OpenSegments(dir) })
	if err != nil {
		return "", archiveStats{}, err
	}
	defer ss.Close()
	p, err := icares.ArchivePipeline(ss, days, icares.TrueAssignment)
	if err != nil {
		return "", archiveStats{}, err
	}
	out := report(p, tr, iter, parent, lt, "archive")
	return out, statsOf(ss), nil
}

// scanArchive is a cold full Iter over every badge and kind of the
// archive in dir, traced as segment.scan; it returns the records read.
func scanArchive(tr *tracer, iter int, lt layerTimes, dir string) (int, error) {
	ss, _, err := store.OpenSegments(dir)
	if err != nil {
		return 0, err
	}
	defer ss.Close()
	n := 0
	tr.timed(lt, iter, 0, "segment.scan", func() {
		for _, id := range ss.Badges() {
			r := ss.Series(id)
			for k := record.KindAccel; k <= record.KindBattery; k++ {
				cur := r.Iter(time.Duration(math.MinInt64), time.Duration(math.MaxInt64), k)
				for b := cur.NextBatch(); b != nil; b = cur.NextBatch() {
					n += len(b)
				}
			}
		}
	})
	lt.add("segment.scan_mib_per_s", float64(ss.BytesOnDisk())/mib/lt.last("segment.scan_s"))
	return n, nil
}

// missionResult is what one batch-mission iteration produced.
type missionResult struct {
	ok      bool
	records float64
	framed  int64
	archive archiveStats
	reg     *telemetry.Registry
}

// batchIteration runs one mission from seed to verified archive report:
// Simulate → resident Pipeline(TrueAssignment).Report() → SaveSegments →
// OpenSegments → ArchivePipeline(...).Report(). The archive report must be
// byte-identical to the resident one. The archive is written to dir.
func batchIteration(c *runConfig, tr *tracer, iter int, lt layerTimes, dir string) (missionResult, error) {
	days := c.size.BatchDays
	var res missionResult
	var resident, archived string
	root := tr.begin(iter, 0, "bench.batch")
	m, reg, err := simulate(c, tr, iter, root, lt, c.seed, days)
	if err != nil {
		return res, err
	}
	p, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		return res, err
	}
	tr.timed(lt, iter, root, "timesync.rectify", func() { _, err = p.RectifyClocks() })
	if err != nil {
		return res, err
	}
	resident = report(p, tr, iter, root, lt, "resident")
	ds := m.Result().Dataset
	tr.timed(lt, iter, root, "store.save_segments", func() { err = ds.SaveSegments(dir) })
	if err != nil {
		return res, err
	}
	archived, res.archive, err = archiveReport(tr, iter, root, lt, dir, days)
	tr.end(root)
	if err != nil {
		return res, err
	}
	res.ok = archived == resident
	res.records = reg.Gauge("mission_records").Value()
	res.framed = ds.EncodedBytes()
	res.reg = reg
	return res, nil
}

// setupRepeats is how many times a cheap set-up is repeated to report its
// median.
const setupRepeats = 3

// runBatchMission is the batch-mission workload. Set-up is warm-up
// missions (the first runs pay for lazy initialization and heap growth);
// each measured iteration then starts fresh from the same seed.
func runBatchMission(c *runConfig, rec *Record, tr *tracer) error {
	rec.Sizes = map[string]any{
		"days": c.size.BatchDays, "data_days": c.size.BatchDays - 1,
		"tick_s": c.size.Tick.Seconds(), "cache_blocks": segment.DefaultCacheBlocks,
	}
	var setupWall, setupCPU []float64
	var first missionResult
	var lastDir string // the last warm-up archive, kept for the traced scan
	for i := 0; i < setupRepeats; i++ {
		sw := startWatch()
		dir, err := os.MkdirTemp(c.tmp, "batch-")
		if err != nil {
			return err
		}
		res, err := batchIteration(c, untraced, 0, nil, dir)
		if err != nil {
			return fmt.Errorf("set-up mission: %w", err)
		}
		os.RemoveAll(lastDir)
		lastDir = dir
		wall, cpu := sw.elapsed()
		setupWall = append(setupWall, wall)
		setupCPU = append(setupCPU, cpu)
		rec.check("archive report == resident report", res.ok, "set-up: reports differ")
		first = res
	}
	rec.median("setup_s", setupCPU, "s")
	rec.median("setup_wall_s", setupWall, "s")
	missionCounts(rec, first.reg)
	first.archive.record(rec, first.framed)

	lt := layerTimes{}
	ts := measureLoop(c, rec, tr, func(t *tracer, iter int) error {
		dir, err := os.MkdirTemp(c.tmp, "batch-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		res, err := batchIteration(c, t, iter, lt, dir)
		if err != nil {
			return err
		}
		rec.check("archive report == resident report", res.ok, fmt.Sprintf("iteration %d: reports differ", iter))
		rec.check("exact counts repeat across iterations", res.archive == first.archive && res.records == first.records,
			fmt.Sprintf("iteration %d: archive or record counts changed", iter))
		return nil
	})
	recordLoop(rec, "batch_s", ts, tr.on)
	if tr.on {
		n, err := scanArchive(tr, 0, lt, lastDir)
		if err != nil {
			return err
		}
		rec.check("segment scan reads every record", int64(n) == first.archive.records, fmt.Sprintf("%d of %d records", n, first.archive.records))
	}
	lt.record(rec)
	return nil
}

// timing is one iteration's wall and CPU seconds.
type timing struct {
	wall, cpu float64
	traced    bool
}

// measureLoop runs body one iteration after another for c.seconds, and at
// least twice. Each iteration starts from a collected heap, so no
// iteration pays for collecting the garbage of the one before. A traced
// run traces every other iteration, so the others measure the tracing
// overhead. Failed iterations count as failed operations and yield no
// timing.
func measureLoop(c *runConfig, rec *Record, tr *tracer, body func(t *tracer, iter int) error) []timing {
	var out []timing
	deadline := time.Now().Add(c.seconds)
	for iter := 1; iter <= 2 || time.Now().Before(deadline); iter++ {
		t := untraced
		if tr.on && iter%2 == 1 {
			t = tr
		}
		runtime.GC()
		sw := startWatch()
		err := body(t, iter)
		wall, cpu := sw.elapsed()
		rec.op(err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iteration %d: %v\n", iter, err)
			continue
		}
		out = append(out, timing{wall, cpu, t.on})
	}
	return out
}

// recordLoop records a loop's end-to-end metrics from its traced
// iterations in a traced run and its untraced ones otherwise: name, the
// median wall seconds per iteration, and the median CPU ms per iteration.
func recordLoop(rec *Record, name string, ts []timing, traced bool) {
	var wall, cpuMs, other []float64
	for _, t := range ts {
		if t.traced != traced {
			other = append(other, t.wall)
			continue
		}
		wall = append(wall, t.wall)
		cpuMs = append(cpuMs, 1e3*t.cpu)
	}
	rec.median(name, wall, "s")
	rec.median("cpu_ms_per_op", cpuMs, "ms")
	if traced {
		rec.set("trace.overhead_ms", 1000*(quantile(wall, 0.5)-quantile(other, 0.5)), "ms")
	}
}

// record stores the median of each layer's samples.
func (l layerTimes) record(rec *Record) {
	for name, xs := range l {
		rec.median(name, xs, layerUnits[name])
	}
}

// runArchiveReport is the archive-report workload: set-up simulates the
// whole mission once, records the resident report's SHA-256, writes the
// archive and drops the mission; each iteration reopens the archive on a
// cold block cache and renders the report.
func runArchiveReport(c *runConfig, rec *Record, tr *tracer) error {
	days := c.size.ArchiveDays
	rec.Sizes = map[string]any{
		"days": days, "data_days": days - 1,
		"tick_s": c.size.Tick.Seconds(), "cache_blocks": segment.DefaultCacheBlocks,
	}
	dir, err := os.MkdirTemp(c.tmp, "archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	lt := layerTimes{}
	sw := startWatch()
	want, framed, err := buildArchive(c, tr, lt, rec, dir, days)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	rec.setup(sw)

	var first archiveStats
	seen := false
	ts := measureLoop(c, rec, tr, func(t *tracer, iter int) error {
		root := t.begin(iter, 0, "bench.archive")
		out, st, err := archiveReport(t, iter, root, lt, dir, days)
		t.end(root)
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(out))
		rec.check("archive report sha256 == resident report's", hex.EncodeToString(sum[:]) == want, fmt.Sprintf("iteration %d: report differs", iter))
		if !seen {
			first, seen = st, true
		}
		rec.check("exact counts repeat across iterations", st == first, fmt.Sprintf("iteration %d: archive counts changed", iter))
		return nil
	})
	first.record(rec, framed)

	peak, err := peakReportHeap(dir, days)
	if err != nil {
		return err
	}
	rec.set("peak_heap_frac_of_disk", float64(peak)/float64(first.bytesOnDisk), "ratio")
	if tr.on {
		n, err := scanArchive(tr, 0, lt, dir)
		if err != nil {
			return err
		}
		rec.check("segment scan reads every record", int64(n) == first.records, fmt.Sprintf("%d of %d records", n, first.records))
	}

	recordLoop(rec, "report_s", ts, tr.on)
	lt.record(rec)
	return nil
}

// buildArchive is archive-report's set-up: simulate, rectify, render the
// resident report, and save the archive. It returns the report's SHA-256
// and the dataset's framed size.
func buildArchive(c *runConfig, tr *tracer, lt layerTimes, rec *Record, dir string, days int) (string, int64, error) {
	root := tr.begin(0, 0, "bench.setup")
	defer tr.end(root)
	m, reg, err := simulate(c, tr, 0, root, lt, c.seed, days)
	if err != nil {
		return "", 0, err
	}
	missionCounts(rec, reg)
	p, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		return "", 0, err
	}
	tr.timed(lt, 0, root, "timesync.rectify", func() { _, err = p.RectifyClocks() })
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256([]byte(report(p, tr, 0, root, lt, "resident")))
	ds := m.Result().Dataset
	tr.timed(lt, 0, root, "store.save_segments", func() { err = ds.SaveSegments(dir) })
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(sum[:]), ds.EncodedBytes(), nil
}

// peakReportHeap renders one archive report the way the out-of-core soak
// test measures it: after a GC, under a memory limit of the baseline heap
// plus a fifth of the archive, sampling HeapAlloc every 5 ms. It returns
// the peak heap growth over the baseline. It runs after the timed loop,
// so its sampling and GC settings never touch a timed report.
func peakReportHeap(dir string, days int) (uint64, error) {
	ss, _, err := store.OpenSegments(dir)
	if err != nil {
		return 0, err
	}
	defer ss.Close()
	p, err := icares.ArchivePipeline(ss, days, icares.TrueAssignment)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(baseline) + ss.BytesOnDisk()/5))
	defer debug.SetGCPercent(debug.SetGCPercent(50))

	peak := baseline // written by the sampler until it closes sampled
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				peak = max(peak, s.HeapAlloc)
			}
		}
	}()
	_ = p.Report()
	close(done)
	<-sampled
	return peak - baseline, nil
}
