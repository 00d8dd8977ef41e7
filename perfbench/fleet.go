package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icares"
	"icares/internal/fleet"
	"icares/internal/telemetry"
)

// routes is the fleet-live request mix. Requests come in blocks that hold
// every route once, in a seeded order; each "{id}" takes the next habitat
// of a seeded order that likewise visits every habitat once per round. So
// every seed offers the same mix, and only its order varies.
var routes = []struct{ name, path string }{
	{"report", "/habitats/{id}/report"},
	{"snapshot", "/habitats/{id}/snapshot"},
	{"alerts", "/habitats/{id}/alerts"},
	{"telemetry", "/habitats/{id}/telemetry"},
	{"habitats", "/habitats"},
	{"fleet-summary", "/fleet/summary"},
	{"fleet-alerts", "/fleet/alerts?limit=100"},
	{"healthz", "/healthz"},
}

// conns is the number of client connections and sender goroutines: the
// generator never uses more than the machine's two cores' worth.
const conns = 2

// lateLimit is how far behind schedule the open-loop generator may run at
// its 99th percentile before the run is marked invalid: 20 inter-arrival
// gaps at the default rate, a backlog the generator itself built up. While
// ingest saturates both cores, the dispatching goroutine's wake-ups run
// 20 to 40 ms late at p99; that delay is charged to the requests, whose
// latency counts from their due time.
const lateLimit = 200 * time.Millisecond

// splitmix derives independent seeds from the workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// habitatConfigs derives the fleet from the workload seed; the last
// habitat (hab-03 at full size) runs a seeded chaos plan.
func habitatConfigs(c *runConfig) []fleet.HabitatConfig {
	n := c.size.Habitats
	out := make([]fleet.HabitatConfig, n)
	for i := range out {
		out[i] = fleet.HabitatConfig{
			ID:   fmt.Sprintf("hab-%02d", i),
			Seed: splitmix(c.seed + uint64(i)),
			Days: c.size.FleetDays,
			Tick: c.size.Tick,
		}
	}
	chaos := &out[min(3, n-1)]
	chaos.Faults = icares.ChaosPlan(chaos.Seed, chaos.Days)
	return out
}

// sample is one request's outcome. Latency is timed from when the request
// was due (open loop) or sent (closed loop); a failed request's latency is
// +Inf, so it misses every latency limit.
type sample struct {
	route   string
	latency float64 // seconds
	traced  bool
	ok      bool
}

type job struct {
	route, path string
	due         time.Time
	traced      bool
}

// generator issues the seeded request mix against the fleet's HTTP API
// over conns keep-alive connections.
type generator struct {
	base    string
	ids     []string
	tr      *tracer
	clients [conns]*http.Client

	mu     sync.Mutex // guards the fields below it
	rng    *rand.Rand
	routeQ []int // rest of the current block of route indices
	habQ   []int // rest of the current round of habitat indices
	seq    int

	iter atomic.Int64
}

func newGenerator(base string, ids []string, seed uint64, tr *tracer) *generator {
	g := &generator{base: base, ids: ids, tr: tr, rng: rand.New(rand.NewSource(int64(seed)))}
	for i := range g.clients {
		g.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// next draws the next request of the mix. Traced runs trace every other
// request, so the untraced half measures the tracing overhead.
func (g *generator) next(due time.Time) job {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.routeQ) == 0 {
		g.routeQ = g.rng.Perm(len(routes))
	}
	r := routes[g.routeQ[0]]
	g.routeQ = g.routeQ[1:]
	path := r.path
	if strings.Contains(path, "{id}") {
		if len(g.habQ) == 0 {
			g.habQ = g.rng.Perm(len(g.ids))
		}
		path = strings.Replace(path, "{id}", g.ids[g.habQ[0]], 1)
		g.habQ = g.habQ[1:]
	}
	g.seq++
	return job{route: r.name, path: path, due: due, traced: g.tr.on && g.seq%2 == 0}
}

// send performs one request on connection c.
func (g *generator) send(c int, j job) sample {
	tr := g.tr
	if !j.traced {
		tr = untraced
	}
	id := tr.begin(int(g.iter.Add(1)), 0, "fleet.http."+j.route)
	ok := false
	resp, err := g.clients[c].Get(g.base + j.path)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok = err == nil && resp.StatusCode == http.StatusOK
	}
	tr.end(id)
	lat := time.Since(j.due).Seconds()
	if !ok {
		lat = math.Inf(1)
	}
	return sample{route: j.route, latency: lat, traced: j.traced, ok: ok}
}

// openLoop sends the mix at rate requests per second, each due on a fixed
// schedule regardless of earlier responses, until stop reports true for a
// due time. Requests wait in a queue for a free connection; the wait
// counts in their latency. It returns once every issued request has
// completed, with each request's lateness (send to the queue minus due).
func (g *generator) openLoop(rate float64, stop func(due time.Time) bool) ([]sample, []float64) {
	// Sized for a minute of backlog at the scheduled rate; a generator
	// that fills it blocks, shows as late, and invalidates the run.
	queue := make(chan job, int(60*rate))
	results := make([][]sample, conns)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for j := range queue {
				results[c] = append(results[c], g.send(c, j))
			}
		}(c)
	}
	var late []float64
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if stop(due) {
			break
		}
		time.Sleep(time.Until(due))
		late = append(late, time.Since(due).Seconds())
		queue <- g.next(due)
	}
	close(queue)
	wg.Wait()
	var out []sample
	for _, r := range results {
		out = append(out, r...)
	}
	return out, late
}

// closedLoop keeps conns requests in flight, each sent as soon as the
// previous one on its connection completes, for d. It returns the samples
// and the wall time until the last response.
func (g *generator) closedLoop(d time.Duration) ([]sample, float64) {
	results := make([][]sample, conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				results[c] = append(results[c], g.send(c, g.next(time.Now())))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var out []sample
	for _, r := range results {
		out = append(out, r...)
	}
	return out, elapsed
}

func latencies(s []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, x := range s {
		if keep(x) {
			out = append(out, x.latency)
		}
	}
	return out
}

// runFleetLive is the fleet-live workload: a seeded fleet ingesting live
// while an open-loop client queries it over loopback HTTP (phase A), the
// same open loop on the settled fleet (phase B), then a closed loop
// (phase C).
func runFleetLive(c *runConfig, rec *Record, tr *tracer) error {
	hcs := habitatConfigs(c)
	phaseB := c.seconds / 2
	phaseC := c.seconds / 2
	rec.Sizes = map[string]any{
		"habitats": len(hcs), "days": c.size.FleetDays, "tick_s": c.size.Tick.Seconds(),
		"rate_per_s": c.size.Rate, "connections": conns,
		"phase_b_s": phaseB.Seconds(), "phase_c_s": phaseC.Seconds(),
	}
	lt := layerTimes{}

	// Set-up: the standalone reference report for hab-00, then the fleet.
	sw := startWatch()
	root := tr.begin(0, 0, "bench.setup")
	want, err := referenceReport(c, tr, root, lt, rec, hcs[0])
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var f *fleet.Fleet
	tr.do(0, root, "fleet.new", func() { f, err = fleet.New(fleet.Config{Habitats: hcs}) })
	tr.end(root)
	if err != nil {
		ln.Close()
		return err
	}
	tNew := time.Now()
	rec.setup(sw)
	defer f.Close()

	srv := &http.Server{Handler: f.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a request still open at the deadline is abandoned with the process
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}()

	ids := f.IDs()
	gen := newGenerator("http://"+ln.Addr().String(), ids, splitmix(c.seed^0x10ad), tr)
	defer gen.close()

	// Phase A: open loop while any habitat is still ingesting. A poller
	// records when each habitat leaves ingesting.
	ingestS := make(map[string]float64, len(ids))
	var settled atomic.Bool
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		deadline := tNew.Add(ingestTimeout)
		for !settled.Load() {
			busy := false
			for _, h := range f.Habitats() {
				if _, seen := ingestS[h.ID]; seen {
					continue
				}
				if h.Status == fleet.Ingesting.String() && time.Now().Before(deadline) {
					busy = true
					continue
				}
				ingestS[h.ID] = time.Since(tNew).Seconds()
			}
			if !busy {
				settled.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	live, lateA := gen.openLoop(c.size.Rate, func(time.Time) bool { return settled.Load() })
	<-pollDone
	var ingestWall float64
	for id, s := range ingestS {
		ingestWall = max(ingestWall, s)
		rec.set("fleet.ingest_s."+id, s, "s")
	}
	var delivered int64
	for _, h := range f.Habitats() {
		delivered += h.Records
		rec.check(h.ID+" serving", h.Status == fleet.Serving.String(), "status "+h.Status)
	}

	// Phase B: the same open loop on the settled fleet.
	endB := time.Now().Add(phaseB)
	settledQ, lateB := gen.openLoop(c.size.Rate, func(due time.Time) bool { return !due.Before(endB) })
	serverMs := routeServerMs(f.Telemetry())

	// Phase C: closed loop.
	swC := startWatch()
	closed, elapsedC := gen.closedLoop(phaseC)
	_, cpuC := swC.elapsed()

	// Output checks.
	for _, id := range ids {
		reg, err := f.HabitatTelemetry(id)
		if err != nil {
			return err
		}
		var got int64
		for _, h := range f.Habitats() {
			if h.ID == id {
				got = h.Records
			}
		}
		wantN := int64(reg.Gauge("mission_records").Value())
		rec.check(id+" ingested == mission_records", got == wantN, fmt.Sprintf("ingested %d of %d", got, wantN))
	}
	resp, err := gen.clients[0].Get(gen.base + "/habitats/" + ids[0] + "/report")
	rec.op(err)
	if err == nil {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.check(ids[0]+" /report == standalone report", err == nil && resp.StatusCode == http.StatusOK && string(body) == want,
			fmt.Sprintf("status %d, %d bytes vs %d", resp.StatusCode, len(body), len(want)))
	}

	// Failures count against attempts in every phase.
	for _, s := range [][]sample{live, settledQ, closed} {
		for _, x := range s {
			rec.Attempted++
			if !x.ok {
				rec.Failed++
			}
		}
	}

	late := append(lateA, lateB...)
	rec.Generator = &Lateness{P99Ms: 1000 * quantile(late, 0.99), MaxMs: 1000 * quantile(late, 1), N: len(late)}
	if p99 := quantile(late, 0.99); p99 > lateLimit.Seconds() {
		rec.Invalid = fmt.Sprintf("open-loop generator fell behind: p99 lateness %.1f ms > %v", 1000*p99, lateLimit)
	}

	// Traced, the end-to-end numbers come from the traced requests.
	keep := func(x sample) bool { return !tr.on || x.traced }
	liveLat := latencies(live, keep)
	settledLat := latencies(settledQ, keep)
	successes := 0
	for _, x := range closed {
		if x.ok {
			successes++
		}
	}
	rec.set("ingest_records_per_s", float64(delivered)/ingestWall, "1/s")
	rec.latency("live_query_p50_ms", liveLat, 0.5, true)
	rec.latency("live_query_p90_ms", liveLat, 0.9, false)
	rec.latency("query_p50_ms", settledLat, 0.5, true)
	rec.latency("query_p99_ms", settledLat, 0.99, false)
	rec.Metrics["served_rps"] = Metric{Value: float64(successes) / elapsedC, Unit: "1/s", N: len(closed)}
	rec.set("cpu_ms_per_op", 1e3*cpuC/float64(max(1, len(closed))), "ms")
	if tr.on {
		off := latencies(settledQ, func(x sample) bool { return !x.traced })
		rec.set("trace.overhead_ms", 1000*(quantile(settledLat, 0.5)-quantile(off, 0.5)), "ms")
	}

	// Per-layer numbers.
	lt.add("fleet.ingest_s", ingestWall)
	open := append(append([]sample(nil), live...), settledQ...)
	for _, r := range routes {
		lat := latencies(open, func(x sample) bool { return x.route == r.name && x.ok })
		var sum float64
		for _, v := range lat {
			sum += v
		}
		rec.Metrics["fleet.http."+r.name+".client_ms"] = Metric{Value: 1000 * sum / float64(max(1, len(lat))), Unit: "ms", N: len(lat)}
		rec.set("fleet.http."+r.name+".server_ms", serverMs[r.name], "ms")
	}
	freg := f.Telemetry()
	rec.set("fleet.rejected", sumMetric(freg, "fleet_queue_rejected_total", ""), "count")
	rec.set("fleet.timeouts", sumMetric(freg, "fleet_timeouts_total", ""), "count")
	var sent, retrans float64
	counts := map[string]float64{}
	for _, id := range ids {
		reg, _ := f.HabitatTelemetry(id)
		sent += sumMetric(reg, "offload_uploader_sent_total", "")
		retrans += sumMetric(reg, "offload_uploader_retransmits_total", "")
		for name, metric := range map[string]string{
			"offload.batches":          "offload_gateway_batches_total",
			"offload.duplicates":       "offload_gateway_duplicates_total",
			"offload.refused":          "offload_gateway_refused_total",
			"support.records_ingested": "support_records_ingested_total",
			"support.alerts":           "support_alerts_total",
			"support.sweeps":           "support_sweeps_total",
		} {
			counts[name] += sumMetric(reg, metric, "")
		}
	}
	counts["offload.retransmits"] = retrans
	for name, v := range counts {
		rec.count(name, v, "count")
	}
	rec.set("offload.useful_frac", sent/(sent+retrans), "ratio")
	lt.record(rec)
	return nil
}

// ingestTimeout bounds phase A: a habitat still ingesting after it is
// reported as not serving.
const ingestTimeout = 120 * time.Second

// referenceReport is the standalone report for hc's seed, days and tick:
// Simulate + Pipeline(TrueAssignment).Report(). The mission's counts go
// to rec.
func referenceReport(c *runConfig, tr *tracer, parent int, lt layerTimes, rec *Record, hc fleet.HabitatConfig) (string, error) {
	m, reg, err := simulate(c, tr, 0, parent, lt, hc.Seed, hc.Days)
	if err != nil {
		return "", err
	}
	missionCounts(rec, reg)
	p, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		return "", err
	}
	tr.timed(lt, 0, parent, "timesync.rectify", func() { _, err = p.RectifyClocks() })
	if err != nil {
		return "", err
	}
	return report(p, tr, 0, parent, lt, "resident"), nil
}

// routeServerMs is the mean of fleet_http_request_seconds per route, in ms.
func routeServerMs(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range routes {
		sel := `route="` + r.name + `"`
		n := sumMetric(reg, "fleet_http_request_seconds_count", sel)
		if n > 0 {
			out[r.name] = 1000 * sumMetric(reg, "fleet_http_request_seconds_sum", sel) / n
		}
	}
	return out
}

// sumMetric sums every sample of metric name in reg's exposition whose
// label block contains sel.
func sumMetric(reg *telemetry.Registry, name, sel string) float64 {
	var total float64
	for _, line := range strings.Split(reg.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key := line[:sp]
		metric, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			metric, labels = key[:i], key[i:]
		}
		if metric != name || !strings.Contains(labels, sel) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[sp+1:], &v); err == nil {
			total += v
		}
	}
	return total
}
