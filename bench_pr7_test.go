package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/trace"
)

type benchRecordPR7 struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Baseline is the board engine: v1 fixed-record packs posted on the
	// flat blackboard, decoded per pack by the unpacker KS with one board
	// entry per event.
	Baseline exp.RawSpeedPoint `json:"baseline_v1_board"`
	// New is the fused engine: v3 stream-dictionary packs folded through
	// the fused decode→dispatch path, on the same flat board.
	New      exp.RawSpeedPoint `json:"new_v3_fused"`
	SpeedupX float64           `json:"speedup_x"`
	// WireRatioDictionary compares the v3 stream's wire bytes with the
	// same stream restarted every pack (dictionary base 0 each time, every
	// pack re-shipping its dictionary); < 1 means the persistent
	// dictionary pays on this stream length.
	WireRatioDictionary float64 `json:"wire_ratio_v3_to_per_pack_dictionary"`
}

// v3WirePerPackDictionary encodes the raw-speed workload (each writer's
// Fig14 stream, 16 KiB packs) as v3 with a fresh builder for every pack,
// so each pack restarts the dictionary at base 0, and returns the total
// wire bytes — the per-pack-dictionary baseline the stream dictionary
// must beat.
func v3WirePerPackDictionary(writers, events int) int64 {
	var wire int64
	for w := 0; w < writers; w++ {
		b := trace.NewPackBuilderV3(1, int32(w), exp.EventRecordSize, 1<<14)
		for i := 0; i < events; i++ {
			ev := exp.Fig14Event(i, int32(w))
			if b.Add(&ev) {
				wire += int64(len(b.Take()))
				b = trace.NewPackBuilderV3(1, int32(w), exp.EventRecordSize, 1<<14)
			}
		}
		wire += int64(len(b.Take()))
	}
	return wire
}

// TestRecordRawSpeedBench is PR7's acceptance gate and bench recorder:
// the identical pre-encoded Fig14 workload is analyzed by the board
// engine (v1 packs, flat blackboard, per-event board entries) and by the
// fused engine (v3 stream-dictionary packs, fused decode→dispatch), at
// host speed with no simulator in the loop. The gate requires >= 2x
// analyzed events per second; the recorded runs on CI hardware land far
// above it. With RECORD_BENCH set it additionally writes
// results/BENCH_PR7.json; without it, short mode skips.
//
// Correctness of the fast path is guarded elsewhere and at full
// strictness: TestTreeProfileMatchesFlat pins flat/tree × v1/v3 golden
// profile fingerprints byte-identical, and the trace/analysis alloc
// guards pin PackBuilderV3 and the fused decode at zero allocations per
// event.
func TestRecordRawSpeedBench(t *testing.T) {
	record := os.Getenv("RECORD_BENCH") != ""
	if !record && testing.Short() {
		t.Skip("short mode and RECORD_BENCH unset")
	}
	writers := 8
	events := 100000
	if record {
		events = 200000
	}

	run := func(version int, fused bool) exp.RawSpeedPoint {
		t.Helper()
		pt, err := exp.RawAnalysisSpeed(exp.RawSpeedConfig{
			Writers: writers, EventsPerWriter: events,
			PackVersion: version, Fused: fused,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	baseline := run(trace.PackV1, false)
	nu := run(trace.PackV3, true)

	speedup := nu.EventsPerSec / baseline.EventsPerSec
	if speedup < 2 {
		t.Errorf("v3 fused engine %.0f ev/s vs v1 board %.0f ev/s: %.2fx, want >= 2x",
			nu.EventsPerSec, baseline.EventsPerSec, speedup)
	}
	perPack := v3WirePerPackDictionary(writers, events)
	if nu.WireBytes >= perPack {
		t.Errorf("v3 wire %d >= %d with a per-pack dictionary on a long stream: the stream dictionary is not paying",
			nu.WireBytes, perPack)
	}
	if nu.FusedPacks == 0 {
		t.Error("no packs took the fused path")
	}

	if !record {
		return
	}
	rec := benchRecordPR7{
		Benchmark:           "TestRecordRawSpeedBench",
		Workload:            "Fig14, 8 writers x 200k events, pre-encoded",
		GoVersion:           runtime.Version(),
		NumCPU:              runtime.NumCPU(),
		Baseline:            baseline,
		New:                 nu,
		SpeedupX:            speedup,
		WireRatioDictionary: float64(nu.WireBytes) / float64(perPack),
	}
	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("results/BENCH_PR7.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/BENCH_PR7.json (%.2fx: %.0f -> %.0f ev/s)",
		speedup, baseline.EventsPerSec, nu.EventsPerSec)
}
