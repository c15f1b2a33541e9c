package main

import (
	"encoding/json"
	"os"
	"testing"
)

// quickRun runs one workload at test size.
func quickRun(t *testing.T, workload string, trace bool) (*result, []string) {
	t.Helper()
	res, lines, err := run(options{workload: workload, seed: defaultSeed, quick: true, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%v", workload, res.Correct, res.Attempted, res.Failed, lines)
	}
	return res, lines
}

// TestWorkloadsReportEveryMetric runs every workload at test size and
// checks that the untraced run prints every end-to-end metric with its
// unit and the traced run every per-layer metric.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, _ := quickRun(t, name, false)
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			res, _ = quickRun(t, name, true)
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
			}
			for _, m := range perLayerMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
				}
				if ok && m.unit != "count" && m.unit != "ratio" && m.unit != "bytes" && got.Value <= 0 {
					t.Errorf("per-layer time %s = %v, want > 0 on every workload", m.name, got.Value)
				}
			}
		})
	}
}

// TestServedIdentityEqual asserts that the in-process campaign and the
// same identity run over the fleet produce equal results.
func TestServedIdentityEqual(t *testing.T) {
	e := &env{opts: options{seed: defaultSeed, quick: true, outDir: t.TempDir()}}
	local, err := runCampaignGPR(e, &clock{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := runFleetWAL(e, &clock{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if local.digest != fleet.digest {
		t.Fatalf("campaign-gpr digest %s, fleet-wal digest %s", local.digest, fleet.digest)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, harness %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
