package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes shrinks every workload to seconds of work; the tests check
// the harness, not the figures.
var tinySizes = sizes{
	Procs:         16,
	CoupledIters:  2,
	ReplayIters:   2,
	LiveIters:     2,
	LiveRate:      5000,
	LiveDiffEvery: 4,
	SetupReps:     1,
	LayerSeconds:  0.01,
}

func tinyRun(t *testing.T, workload string, seed int64, traced bool) result {
	t.Helper()
	res, out, err := run(config{Workload: workload, Seed: seed, Seconds: 0.5, Trace: traced, Size: tinySizes})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, p := range out.Problems {
		t.Errorf("%s: %s", workload, p)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d of %d", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
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

// TestSmokeMatchesSpec runs every workload declared in BENCHMARK.json on
// tiny inputs, untraced and traced, and checks that each run emits
// exactly the declared metrics with the declared units.
func TestSmokeMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w.Name, 7, traced)
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
		}
	}
}

// TestDeterministicMetricsRepeat checks that the figures computed from
// the simulation alone repeat exactly across runs and seeds.
func TestDeterministicMetricsRepeat(t *testing.T) {
	for name := range workloads {
		a := tinyRun(t, name, 1, false)
		b := tinyRun(t, name, 2, false)
		for _, m := range []string{"wire_bytes_per_event", "sim_overhead_pct"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs between runs: %v vs %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestOversaturatedLiveTripsGuard offers daemon-live far more load than
// a one-lane windowed session can absorb while querying it after every
// pack: the lateness guard must fail those sessions instead of reporting
// their queue growth as latency.
func TestOversaturatedLiveTripsGuard(t *testing.T) {
	s := tinySizes
	s.LiveIters = 4
	s.LiveRate = 5e7
	s.LiveDiffEvery = 1
	res, out, err := run(config{Workload: "daemon-live", Seed: 1, Seconds: 0.5, Size: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("oversaturated daemon-live passed: correct=%v failed=%d problems=%v", res.Correct, res.Failed, out.Problems)
	}
	tripped := false
	for _, p := range out.Problems {
		tripped = tripped || strings.Contains(p, "above saturation")
	}
	if !tripped {
		t.Fatalf("oversaturated daemon-live failed for another reason: %v", out.Problems)
	}
}
