package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// against: every metric it names, with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and finishes correct.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, info, err := execute(w, params{workload: w.name, seed: 1, seconds: 1, traced: traced, tiny: true, tmp: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, info["errors"])
				}
				if res.Failed > 0 {
					t.Logf("failed %d of %d: %v", res.Failed, res.Attempted, info["errors"])
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestParity checks the tracing wrappers are pure pass-throughs.
func TestParity(t *testing.T) {
	if err := parityCheck(); err != nil {
		t.Fatal(err)
	}
}
