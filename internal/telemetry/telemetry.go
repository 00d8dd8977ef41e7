// Package telemetry is the observability substrate of the online data
// path: a zero-dependency, goroutine-safe metrics registry (counters,
// gauges, histograms with fixed bucket layouts).
//
// The paper's Section VI support system must run unattended for months;
// the crew (and a mission control twenty light-minutes away) need to see
// its health without log archaeology. Every hot-path component — offload
// gateway and uploaders, uplink links, the mission engine, the support
// daemon, the sociometry pipeline — registers its counters here, and a
// scraper reads one consistent snapshot via Write.
//
// # Conventions
//
// Metric names are snake_case, prefixed with their subsystem and suffixed
// with the unit or "_total" for monotonic counters
// (offload_gateway_batches_total, uplink_pending, sociometry_stage_seconds).
// Dimensions go in labels, never in the name.
//
// Every constructor and method is nil-receiver safe: an uninstrumented
// component holds nil handles and its Inc/Set/Observe calls are no-ops, so
// instrumentation never needs to branch.
//
// # Determinism
//
// Write emits metrics sorted by name and then by label identity, so two
// scrapes with no intervening writes are byte-identical — the property the
// chaos suite relies on when diffing system state across runs.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" metric dimension.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DefBuckets is the default histogram layout for durations in seconds,
// spanning 100 µs to 10 s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases the gauge by delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Bucket bounds are
// inclusive upper edges (observation v lands in the first bucket with
// v <= bound); everything above the last bound lands in the implicit +Inf
// bucket. The layout is frozen at construction.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// bounds are frozen at construction and published happens-before via
	// the registry lock, so the bucket search is safe outside the mutex —
	// the critical section is just the three counter updates.
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is one consistent view of a histogram.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // per-bucket, last entry is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

// entry is one registered metric.
type entry struct {
	name   string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. All methods are safe for concurrent use; a
// nil *Registry hands out nil metric handles whose mutators are no-ops, so
// components can be instrumented unconditionally.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // keyed by identity (name + sorted labels)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// identity builds the map key and exposition label block for name+labels.
func identity(name string, labels []Label) (key, block string) {
	if len(labels) == 0 {
		return name, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return name + b.String(), b.String()
}

// lookup returns the entry for (name, labels), creating it with mk on first
// use. Re-registering the same identity with a different kind panics: that
// is a programming error, two subsystems fighting over one name.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, mk func() *entry) *entry {
	key, _ := identity(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different kind", key))
		}
		return e
	}
	e := mk()
	r.entries[key] = e
	return e
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, labels, kindCounter, func() *entry {
		return &entry{name: name, labels: labels, kind: kindCounter, c: new(Counter)}
	})
	return e.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, labels, kindGauge, func() *entry {
		return &entry{name: name, labels: labels, kind: kindGauge, g: new(Gauge)}
	})
	return e.g
}

// Histogram returns the histogram registered under name+labels, creating it
// with the given bucket bounds on first use (later calls reuse the frozen
// layout; pass nil to mean DefBuckets). Bounds must be sorted ascending.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, labels, kindHistogram, func() *entry {
		if len(bounds) == 0 {
			bounds = DefBuckets
		}
		bs := append([]float64(nil), bounds...)
		return &entry{name: name, labels: labels, kind: kindHistogram, h: &Histogram{
			bounds: bs,
			counts: make([]uint64, len(bs)+1),
		}}
	})
	return e.h
}

// point is one exposition line: a fully-labelled name and its value text.
type point struct {
	fam  string // metric family name, for # TYPE grouping
	kind metricKind
	key  string // sort key: name + label block (+ synthetic suffixes)
	line string
}

// typeName renders the metric kind for # TYPE comment lines.
func (k metricKind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// fnum formats a float deterministically.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// snapshot renders every metric to exposition lines under the registry
// lock. Counter/gauge/histogram internals are read through their own
// atomic/mutex access, so each value is itself consistent.
func (r *Registry) snapshot() []point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()

	var pts []point
	for _, e := range entries {
		_, block := identity(e.name, e.labels)
		switch e.kind {
		case kindCounter:
			pts = append(pts, point{
				fam: e.name, kind: e.kind,
				key:  e.name + block,
				line: fmt.Sprintf("%s%s %d", e.name, block, e.c.Value()),
			})
		case kindGauge:
			pts = append(pts, point{
				fam: e.name, kind: e.kind,
				key:  e.name + block,
				line: fmt.Sprintf("%s%s %s", e.name, block, fnum(e.g.Value())),
			})
		case kindHistogram:
			s := e.h.Snapshot()
			cum := uint64(0)
			for i, n := range s.Counts {
				cum += n
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fnum(s.Bounds[i])
				}
				leBlock := mergeLabel(block, "le", le)
				pts = append(pts, point{
					fam: e.name, kind: e.kind,
					key:  fmt.Sprintf("%s_bucket%s~%03d", e.name, block, i),
					line: fmt.Sprintf("%s_bucket%s %d", e.name, leBlock, cum),
				})
			}
			pts = append(pts, point{
				fam: e.name, kind: e.kind,
				key:  e.name + "_sum" + block,
				line: fmt.Sprintf("%s_sum%s %s", e.name, block, fnum(s.Sum)),
			})
			pts = append(pts, point{
				fam: e.name, kind: e.kind,
				key:  e.name + "_count" + block,
				line: fmt.Sprintf("%s_count%s %d", e.name, block, s.Count),
			})
		}
	}
	// Sort by family first so each family's samples are contiguous (the
	// Prometheus text format requires it and # TYPE headers rely on it),
	// then by key for the stable within-family order.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].fam != pts[j].fam {
			return pts[i].fam < pts[j].fam
		}
		return pts[i].key < pts[j].key
	})
	return pts
}

// mergeLabel appends one label pair to an existing (possibly empty)
// rendered label block.
func mergeLabel(block, name, value string) string {
	pair := fmt.Sprintf("%s=%q", name, value)
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

// Write emits the text exposition of every registered metric, one line per
// sample, deterministically ordered (sorted by name, then labels; histogram
// buckets in bound order), with a `# TYPE name kind` header before each
// metric family so real Prometheus scrapers ingest the endpoints cleanly.
// Two writes with no intervening metric updates produce byte-identical
// output.
func (r *Registry) Write(w io.Writer) error {
	prevFam := ""
	for _, p := range r.snapshot() {
		if p.fam != prevFam {
			prevFam = p.fam
			if _, err := io.WriteString(w, "# TYPE "+p.fam+" "+p.kind.typeName()+"\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, p.line+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// String renders the exposition to a string (scrape convenience).
func (r *Registry) String() string {
	var b strings.Builder
	_ = r.Write(&b)
	return b.String()
}
