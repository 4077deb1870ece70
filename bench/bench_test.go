package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The benchmark cannot drift from BENCHMARK.json: names, units, directions
// and bounds in the program's tables are the file's.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if _, ok := tailPct[w.Name]; !ok {
			t.Errorf("workload %q has no tail percentile", w.Name)
		}
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, defs []metricDef, entries []entry, bounded bool) {
		if len(defs) != len(entries) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(entries), len(defs))
		}
		for i, d := range defs {
			e := entries[i]
			if !nameOK.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, e, d)
			}
			if bounded != (e.Bound != nil) || (bounded && *e.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from BENCHMARK.json", kind, d.name)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd, true)
	same("per_layer", perLayer, doc.PerLayer, false)
}

var smokeSizes = sizes{resident: 200, warmCycles: 10, setups: 2, simWarm: 2, walRecords: 200, roundCycles: 2}

// Every workload runs both passes at a fraction of the real sizing, passes
// its output checks and emits exactly the declared metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.6, trace: traced, sizes: smokeSizes, outDir: t.TempDir(), dataRoot: t.TempDir()}
			rec, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", w, traced, d.name, v)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
				}
			}
			if !traced {
				continue
			}
			if c := rec.Metrics["trace.closure_frac"]; c < 0.95 || c > 1.05 {
				t.Errorf("%s: trace.closure_frac = %v, want within [0.95, 1.05]", w, c)
			}
			info, err := os.Stat(o.outDir + "/trace-" + w + ".jsonl")
			if err != nil || info.Size() == 0 {
				t.Errorf("%s: span file missing or empty (%v)", w, err)
			}
		}
	}
}
