package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/exp"
)

type benchRecordPR9 struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Points is the v3 fused engine at each worker count: blackboard
	// workers and replica lanes scale together; 1 worker is the
	// serial (replica-free) engine of PR7.
	Points []exp.RawSpeedPoint `json:"points"`
	// SpeedupX maps "<workers>" to events/s relative to the 1-worker run.
	SpeedupX map[string]float64 `json:"speedup_x"`
}

// TestRecordParallelAnalysisBench is PR9's acceptance gate and bench
// recorder: the v3 fused path analyzes the identical pre-encoded Fig14
// workload at 1, 2, 4 and 8 workers, with per-worker module replicas and
// epoch merges carrying the parallelism. The scaling requirement is
// gated on the host's core count — >= 2x at 8 workers on an 8-core box,
// >= 1.5x on a 4-core box (the CI runner class), log-only below, where
// there is no parallel hardware to scale onto. Byte-identity of the
// parallel path is pinned separately and at full strictness by
// TestReplicaProfileMatrixMatchesSerial and the analysis-level golden
// tests. With RECORD_BENCH set it additionally writes
// results/BENCH_PR9.json; without it, short mode skips.
func TestRecordParallelAnalysisBench(t *testing.T) {
	record := os.Getenv("RECORD_BENCH") != ""
	if !record && testing.Short() {
		t.Skip("short mode and RECORD_BENCH unset")
	}
	writers := 8
	events := 100000
	if record {
		events = 200000
	}
	cores := []int{1, 2, 4, 8}

	pts, err := exp.RawSpeedScaling(writers, events, cores)
	if err != nil {
		t.Fatal(err)
	}
	base := pts[0]
	speedup := map[string]float64{}
	var at8 float64
	for i, pt := range pts {
		x := pt.EventsPerSec / base.EventsPerSec
		speedup[strconv.Itoa(cores[i])] = x
		if cores[i] == 8 {
			at8 = x
		}
		t.Logf("workers=%d: %.0f ev/s (%.2fx, %d epoch merges)", cores[i], pt.EventsPerSec, x, pt.EpochMerges)
	}
	switch {
	case runtime.NumCPU() >= 8:
		if at8 < 2 {
			t.Errorf("8-worker replica path %.2fx over serial on a %d-core host, want >= 2x", at8, runtime.NumCPU())
		}
	case runtime.NumCPU() >= 4:
		if at8 < 1.5 {
			t.Errorf("8-worker replica path %.2fx over serial on a %d-core host, want >= 1.5x", at8, runtime.NumCPU())
		}
	default:
		t.Logf("host has %d cores: scaling gate skipped (%.2fx at 8 workers)", runtime.NumCPU(), at8)
	}
	for _, pt := range pts[1:] {
		if pt.EpochMerges == 0 {
			t.Errorf("workers=%d ran no epoch merges: the replica path did not engage", pt.Workers)
		}
	}

	if !record {
		return
	}
	rec := benchRecordPR9{
		Benchmark: "TestRecordParallelAnalysisBench",
		Workload:  "Fig14, 8 writers x 200k events, pre-encoded v3, fused + replicas",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Points:    pts,
		SpeedupX:  speedup,
	}
	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("results/BENCH_PR9.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/BENCH_PR9.json (%.2fx at 8 workers on %d cores)", at8, runtime.NumCPU())
}
