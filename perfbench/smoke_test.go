package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// workloadMetrics are the end-to-end metrics each workload reports under
// its own name, next to the summary metrics and setup_wall_s, which every
// workload shares.
var workloadMetrics = map[string][]string{
	"batch-mission":  {"batch_s", "disk_bytes_per_framed_byte"},
	"archive-report": {"report_s", "disk_bytes_per_framed_byte", "peak_heap_frac_of_disk"},
	"fleet-live": {"ingest_records_per_s", "live_query_p50_ms", "live_query_p90_ms",
		"query_p50_ms", "query_p99_ms", "served_rps"},
}

// TestSmoke runs every workload at the tiny size, untraced and traced, and
// checks that every named metric is emitted with its unit and that the
// output checks pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, spans, err := run(w.name, 7, 1, trace, "tiny")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.correct() || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d invalid=%q checks=%+v",
					w.name, trace, rec.correct(), rec.Attempted, rec.Failed, rec.Invalid, rec.Checks)
			}
			want := append(append([]string(nil), endToEnd...), workloadMetrics[w.name]...)
			want = append(want, "setup_wall_s")
			if trace {
				want = sortedKeys(layerUnits)
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
			for _, n := range want {
				m, ok := rec.Metrics[n]
				if !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing or without unit", w.name, trace, n)
				}
			}

			summary := endToEnd
			if trace {
				summary = sortedKeys(layerUnits)
			}
			var out bytes.Buffer
			if err := rec.emit(&out, summary); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: summary line keys: %s", w.name, lines[len(lines)-1])
			}
		}
	}
}

// TestBenchmarkSpec pins BENCHMARK.json to the metrics the driver emits.
func TestBenchmarkSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, driver has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	e2e := map[string]string{"setup_s": "s", "cpu_ms_per_op": "ms"}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, driver emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s %s: driver unit %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, driver emits %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s %s: driver unit %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}
