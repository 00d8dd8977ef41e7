package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one measured number. Timings carry the samples their value
// was taken from, so the comparator can judge spread; counts the program
// produces deterministically are marked Exact and compared bit for bit.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Exact   bool      `json:"exact,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// Env is the machine and runtime a result was measured on.
type Env struct {
	// StealS is the CPU time the host withheld from this machine during
	// the run (Linux /proc/stat), the usual cause of a noisy run.
	StealS     float64 `json:"steal_s"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	GOMEMLIMIT string  `json:"gomemlimit"`
}

// stealSeconds reads the host's cumulative steal time; 0 where
// /proc/stat is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var v float64
	if _, err := fmt.Sscan(f[8], &v); err != nil {
		return 0
	}
	return v / 100 // USER_HZ
}

func currentEnv() Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
	}
}

// Lateness is how far behind schedule the open-loop generator sent: send
// time minus due time over every scheduled request.
type Lateness struct {
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	N     int     `json:"n"`
}

// Check is one output-correctness assertion, counted over every time the
// run made it; Detail is the first failure's.
type Check struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	Detail string `json:"detail,omitempty"`
}

// Record is the full result of one run: every metric under its own name,
// the environment, the sizes the workload ran at, and the checks.
type Record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Size      string            `json:"size"`
	Sizes     map[string]any    `json:"sizes"`
	Env       Env               `json:"env"`
	Generator *Lateness         `json:"generator"`
	Invalid   string            `json:"invalid,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []Check           `json:"checks"`
	Metrics   map[string]Metric `json:"metrics"`
}

func newRecord() *Record {
	return &Record{Metrics: make(map[string]Metric), Env: currentEnv()}
}

// set records a single-valued metric.
func (r *Record) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: 1}
}

// setup records a set-up timed once: setup_s in CPU seconds, the
// summary metric, and setup_wall_s beside it.
func (r *Record) setup(sw stopwatch) {
	wall, cpu := sw.elapsed()
	r.set("setup_s", cpu, "s")
	r.set("setup_wall_s", wall, "s")
}

// count records a deterministic count.
func (r *Record) count(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: 1, Exact: true}
}

// median records the median of samples, keeping the samples.
func (r *Record) median(name string, samples []float64, unit string) {
	r.Metrics[name] = Metric{Value: quantile(samples, 0.5), Unit: unit, N: len(samples), Samples: samples}
}

// latency records the q-quantile of latencies given in seconds, in ms. With
// keep, the samples are kept for the comparator.
func (r *Record) latency(name string, secs []float64, q float64, keep bool) {
	ms := make([]float64, len(secs))
	for i, v := range secs {
		ms[i] = 1000 * v
	}
	m := Metric{Value: quantile(ms, q), Unit: "ms", N: len(ms)}
	if keep {
		m.Samples = ms
	}
	r.Metrics[name] = m
}

// check records an output check; a failed check counts as a failed
// operation.
func (r *Record) check(name string, ok bool, detail string) {
	r.Attempted++
	i := 0
	for i < len(r.Checks) && r.Checks[i].Name != name {
		i++
	}
	if i == len(r.Checks) {
		r.Checks = append(r.Checks, Check{Name: name})
	}
	c := &r.Checks[i]
	if ok {
		c.Passed++
		return
	}
	r.Failed++
	if c.Failed == 0 {
		c.Detail = detail
	}
	c.Failed++
}

// op counts one operation of the workload; err != nil marks it failed.
func (r *Record) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
	}
}

func (r *Record) correct() bool {
	if r.Invalid != "" {
		return false
	}
	return r.Failed == 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). +Inf entries — failed
// requests — sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summaryLine is the final stdout line: exactly these four keys.
type summaryLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]summaryMetricJS `json:"metrics"`
}

type summaryMetricJS struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name with its unit and sample count, then
// the summary line carrying the names in want.
func (r *Record) emit(w io.Writer, want []string) error {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v seconds=%d size=%s nproc=%d gomaxprocs=%d go=%s GOGC=%q GOMEMLIMIT=%q steal_s=%.2f\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Size, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.GOGC, r.Env.GOMEMLIMIT, r.Env.StealS)
	sizes, _ := json.Marshal(r.Sizes)
	fmt.Fprintf(w, "sizes %s\n", sizes)
	if g := r.Generator; g != nil {
		fmt.Fprintf(w, "generator late_p99_ms=%.3f late_max_ms=%.3f n=%d\n", g.P99Ms, g.MaxMs, g.N)
	}
	for _, c := range r.Checks {
		status := "ok"
		if c.Failed > 0 {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %s: %d/%d %s\n", c.Name, c.Passed, c.Passed+c.Failed, status)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		kind := ""
		if m.Exact {
			kind = " exact"
		}
		fmt.Fprintf(w, "metric %s %s %s n=%d%s\n", n, formatValue(m.Value), m.Unit, m.N, kind)
	}
	fmt.Fprintf(w, "fail_frac %s (%d/%d)\n", formatValue(failFrac(r.Failed, r.Attempted)), r.Failed, r.Attempted)
	if r.Invalid != "" {
		fmt.Fprintf(w, "INVALID: %s\n", r.Invalid)
	}

	line := summaryLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]summaryMetricJS, len(want))}
	var missing []string
	for _, n := range want {
		m, ok := r.Metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		line.Metrics[n] = summaryMetricJS{Value: finite(m.Value), Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func failFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// finite keeps the summary line valid JSON: a latency percentile that
// lands on a failed request is +Inf, reported as the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// save writes the record (and, when traced, its spans) under dir.
func (r *Record) save(dir string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Trace))
	path := filepath.Join(dir, base+".json")
	if err := writeJSON(path, sanitized(r)); err != nil {
		return "", err
	}
	if r.Trace {
		if err := writeJSON(filepath.Join(dir, base+".spans.json"), spans); err != nil {
			return "", err
		}
	}
	return path, nil
}

// sanitized replaces non-finite values, which JSON cannot carry.
func sanitized(r *Record) *Record {
	c := *r
	c.Metrics = make(map[string]Metric, len(r.Metrics))
	for n, m := range r.Metrics {
		m.Value = finite(m.Value)
		if m.Samples != nil {
			s := make([]float64, len(m.Samples))
			for i, v := range m.Samples {
				s[i] = finite(v)
			}
			m.Samples = s
		}
		c.Metrics[n] = m
	}
	return &c
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
