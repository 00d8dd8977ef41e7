// Command perfbench is the repository's benchmark: seeded workloads run
// against the public entry points of each layer, with output checks, one
// summary line of end-to-end metrics, and a traced mode that breaks the
// same runs down per layer.
//
//	perfbench --workload batch-mission --seed 42 --seconds 20 --trace 0
//	perfbench compare old.json new.json
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps every build and run artifact under .bench_build/.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// sizes is how large a workload runs.
type sizes struct {
	BatchDays   int
	ArchiveDays int
	FleetDays   int
	Habitats    int
	Tick        time.Duration
	Rate        float64 // open-loop requests per second
}

var sizePresets = map[string]sizes{
	// full: a 3-day batch mission, the 14-day archive, and 4 habitats of
	// 4 days, all at the default 5 s tick.
	"full": {BatchDays: 3, ArchiveDays: 14, FleetDays: 4, Habitats: 4, Tick: 5 * time.Second, Rate: 100},
	// tiny: one data day at a 60 s tick and 2 habitats, for smoke tests.
	"tiny": {BatchDays: 2, ArchiveDays: 2, FleetDays: 2, Habitats: 2, Tick: 60 * time.Second, Rate: 100},
}

// runConfig is one run's inputs.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	size    sizes
	tmp     string // directory for archives, removed when the run ends
}

type workload struct {
	name string
	run  func(*runConfig, *Record, *tracer) error
}

var workloads = []workload{
	{"batch-mission", runBatchMission},
	{"archive-report", runArchiveReport},
	{"fleet-live", runFleetLive},
}

// endToEnd are the summary metrics every workload reports untraced. Each
// workload defines them on its own unit of work (see README.md).
var endToEnd = []string{"setup_s", "cpu_ms_per_op"}

// layerUnits names every per-layer metric a traced run reports, with its
// unit. A workload that never enters a layer reports its metrics as 0.
var layerUnits = map[string]string{
	"mission.run_s": "s", "mission.ns_per_record": "ns", "mission.alloc_mib": "MiB",
	"mission.records": "count", "mission.ticks": "count",
	"timesync.rectify_s":    "s",
	"store.save_segments_s": "s", "store.open_segments_s": "s", "store.framed_bytes": "bytes",
	"segment.bytes_on_disk": "bytes", "segment.blocks": "count", "segment.blocks_per_badge_max": "count",
	"segment.corrupt_blocks": "count", "segment.scan_s": "s", "segment.scan_mib_per_s": "MiB/s",
	"offload.batches": "count", "offload.retransmits": "count", "offload.duplicates": "count",
	"offload.refused": "count", "offload.useful_frac": "ratio",
	"support.records_ingested": "count", "support.alerts": "count", "support.sweeps": "count",
	"fleet.ingest_s": "s", "fleet.rejected": "count", "fleet.timeouts": "count",
	"trace.overhead_ms": "ms",
}

// selfLayers are the layers whose spans' self time a traced run reports.
var selfLayers = []string{"bench", "mission", "timesync", "sociometry", "store", "segment", "fleet"}

func init() {
	for _, v := range []string{"resident", "archive"} {
		for _, s := range []string{"track_s", "frames_s", "intervals_s", "render_s"} {
			layerUnits["sociometry."+v+"."+s] = "s"
		}
		layerUnits["sociometry."+v+".report_alloc_mib"] = "MiB"
	}
	for _, r := range routes {
		layerUnits["fleet.http."+r.name+".server_ms"] = "ms"
		layerUnits["fleet.http."+r.name+".client_ms"] = "ms"
	}
	for _, l := range selfLayers {
		layerUnits[l+".self_s"] = "s"
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: batch-mission, archive-report or fleet-live")
	seed := flag.Uint64("seed", 42, "workload seed")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outdir := flag.String("outdir", "", "directory for the full result record (and spans when traced)")
	flag.Parse()

	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	rec, spans, err := run(*name, *seed, *seconds, *trace == 1, "full")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *outdir != "" {
		path, err := rec.save(*outdir, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("record %s\n", path)
	}
	want := endToEnd
	if rec.Trace {
		want = sortedKeys(layerUnits)
	}
	if err := rec.emit(os.Stdout, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload at the named size preset and returns its
// record and, when traced, its spans.
func run(name string, seed uint64, seconds int, trace bool, size string) (*Record, []Span, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	sz, ok := sizePresets[size]
	if !ok {
		return nil, nil, fmt.Errorf("unknown size %q", size)
	}
	if seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	c := &runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, size: sz, tmp: tmp}
	rec := newRecord()
	rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Size = name, seed, trace, seconds, size
	tr := newTracer(trace)
	steal := stealSeconds()
	if err := w.run(c, rec, tr); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	rec.Env.StealS = stealSeconds() - steal
	spans := tr.done()
	if trace {
		self := selfTimes(spans)
		for _, l := range selfLayers {
			rec.set(l+".self_s", self[l].Seconds(), "s")
		}
		rec.set("trace.spans", float64(len(spans)), "count")
		// Layers this workload never enters report 0.
		for _, n := range sortedKeys(layerUnits) {
			if _, ok := rec.Metrics[n]; !ok {
				rec.set(n, 0, layerUnits[n])
			}
		}
	}
	return rec, spans, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
