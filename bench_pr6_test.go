package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/exp"
	"repro/internal/nas"
)

type overloadPoint struct {
	Mode            string  `json:"mode"`
	AppSeconds      float64 `json:"app_seconds"`
	OverheadX       float64 `json:"overhead_x"`
	AnalyzedEvents  int64   `json:"analyzed_events"`
	ShedEvents      int64   `json:"shed_events"`
	CompletenessPct float64 `json:"completeness_pct"`
	AdaptMaxLevel   int     `json:"adapt_max_level"`
	AdaptDecisions  int64   `json:"adapt_decisions"`
}

type shedClass struct {
	Kind         string  `json:"kind"`
	Kept         int64   `json:"kept"`
	Shed         int64   `json:"shed"`
	Analyzed     int64   `json:"analyzed"`
	AdvertisedPc float64 `json:"advertised_completeness_pct"`
	TruePc       float64 `json:"true_completeness_pct"`
}

type benchRecordPR6 struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	GoVersion string `json:"go_version"`
	// ThrottleBytesPerS is the analyzer partition's modeled ingest rate for
	// the static and adaptive runs (the unloaded baseline runs at the
	// calibrated rate).
	ThrottleBytesPerS float64         `json:"throttle_bytes_per_s"`
	Sweep             []overloadPoint `json:"sweep"`
	Classes           []shedClass     `json:"classes"`
	// AdaptiveIdleLossless records that the controller is measurement-
	// neutral when nothing is wrong: an unloaded run with the closed loop
	// armed stays at level 0, sheds nothing, and analyzes exactly the
	// baseline's event count. (Arming is not byte-identical — the v3
	// format ceiling costs one negotiation hello per peer at open, which
	// the measured timings legitimately see; byte-identity is guaranteed
	// only for the disabled default, which shares PR 5's golden
	// fingerprints.)
	AdaptiveIdleLossless bool `json:"adaptive_idle_lossless"`
}

// TestRecordAdaptiveBench is PR6's acceptance gate and bench recorder. One
// workload is profiled three ways on a pinned platform: unloaded, then
// with the analyzer partition throttled 10x below the calibrated rate —
// once with the static engine (whose only recourse is back-pressure) and
// once with the adaptive controller closing the loop. It always asserts
// the headline bounds — the throttle stalls the static engine's
// application by more than 2x while the adaptive engine holds overhead
// within 1.25x of unloaded; every event is either analyzed or in a shed
// ledger; and each class's advertised completeness bound is conservative
// (reported loss >= true loss). With RECORD_BENCH set it additionally
// writes results/BENCH_PR6.json; without it, short mode skips.
func TestRecordAdaptiveBench(t *testing.T) {
	record := os.Getenv("RECORD_BENCH") != ""
	if !record && testing.Short() {
		t.Skip("short mode and RECORD_BENCH unset")
	}
	lu, err := nas.LU(nas.ClassA, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	base := exp.ProfileOptions{
		Workers:         2,
		PackBytes:       8192,
		TelemetryPeriod: 50 * time.Millisecond,
		AdaptiveConfig:  adapt.Config{BacklogHighBytes: 64 << 10},
	}
	const slowRate = 2e5
	points, err := exp.OverloadSweep(exp.Tera100(), []*nas.Workload{lu}, base, slowRate)
	if err != nil {
		t.Fatal(err)
	}
	unloaded, static, adaptive := points[0], points[1], points[2]

	rec := benchRecordPR6{
		Benchmark:         "TestRecordAdaptiveBench",
		Workload:          "LU.A@16, 40 timesteps, telemetry 50ms",
		GoVersion:         runtime.Version(),
		ThrottleBytesPerS: slowRate,
	}
	for _, pt := range points {
		rec.Sweep = append(rec.Sweep, overloadPoint{
			Mode:            pt.Mode,
			AppSeconds:      pt.AppSeconds,
			OverheadX:       pt.OverheadX,
			AnalyzedEvents:  pt.AnalyzedEvents,
			ShedEvents:      pt.ShedEvents,
			CompletenessPct: pt.CompletenessPct,
			AdaptMaxLevel:   pt.AdaptMaxLevel,
			AdaptDecisions:  pt.AdaptDecisions,
		})
	}

	// The headline gate: back-pressure alone stalls the application by
	// multiples, the closed loop holds it near the unloaded baseline.
	if static.OverheadX <= 2 {
		t.Errorf("static overload overhead %.2fx, want > 2x (the throttle is not biting)", static.OverheadX)
	}
	if adaptive.OverheadX > 1.25 {
		t.Errorf("adaptive overload overhead %.2fx, want <= 1.25x", adaptive.OverheadX)
	}
	if adaptive.AdaptMaxLevel == 0 || adaptive.ShedEvents == 0 {
		t.Errorf("adaptive run never escalated (level %d, shed %d): nothing was controlled",
			adaptive.AdaptMaxLevel, adaptive.ShedEvents)
	}

	// Conservation: the event volume is deterministic, so every event the
	// unloaded run analyzed must appear in the adaptive run as either
	// analyzed or ledgered shed — no event vanishes uncounted.
	if got, want := adaptive.AnalyzedEvents+adaptive.ShedEvents, unloaded.AnalyzedEvents; got != want {
		t.Errorf("adaptive analyzed+shed = %d, want %d (events lost outside the shed ledger)", got, want)
	}
	if static.AnalyzedEvents != unloaded.AnalyzedEvents {
		t.Errorf("static analyzed %d != unloaded %d (back-pressure must be lossless)",
			static.AnalyzedEvents, unloaded.AnalyzedEvents)
	}

	// Per-class ledger: analyzed can only fall short of kept (downstream
	// loss), never exceed it, which is exactly why the advertised bound
	// shed/(shed+analyzed) is conservative against the true loss
	// shed/(shed+kept).
	var ledgerShed int64
	for _, ch := range adaptive.Report.Chapters {
		if ch.Completeness.Empty() {
			continue
		}
		for _, k := range ch.Completeness.Kinds() {
			st := ch.Completeness.Stat(k)
			analyzed := ch.Profiler.Stat(k).Hits
			ledgerShed += st.Shed
			if analyzed > st.Kept {
				t.Errorf("%s: analyzed %d > kept %d (ledger missed admissions)", k, analyzed, st.Kept)
			}
			advertised := 1 - ch.Completeness.Bound(k, analyzed)
			truth := float64(1)
			if st.Kept+st.Shed > 0 {
				truth = float64(st.Kept) / float64(st.Kept+st.Shed)
			}
			const eps = 1e-12
			if advertised > truth+eps {
				t.Errorf("%s: advertised completeness %.4f overstates true %.4f", k, advertised, truth)
			}
			rec.Classes = append(rec.Classes, shedClass{
				Kind:         k.String(),
				Kept:         st.Kept,
				Shed:         st.Shed,
				Analyzed:     analyzed,
				AdvertisedPc: 100 * advertised,
				TruePc:       100 * truth,
			})
		}
	}
	if ledgerShed != adaptive.ShedEvents {
		t.Errorf("per-class ledger sums %d shed, gates counted %d", ledgerShed, adaptive.ShedEvents)
	}
	var rowShed int64
	for _, row := range adaptive.Report.StreamLoss {
		rowShed += row.Shed
	}
	if rowShed != adaptive.ShedEvents {
		t.Errorf("per-stream loss rows sum %d shed, gates counted %d", rowShed, adaptive.ShedEvents)
	}

	// An armed controller with nothing to do must be measurement-neutral:
	// profile the same workload unloaded with the loop closed and check it
	// never escalates, never sheds, and loses no event. (The static
	// overload run legitimately differs from the baseline in content —
	// back-pressure stretches the application's blocking calls, and the
	// profile faithfully measures that.)
	idleOpts := base
	idleOpts.Telemetry = true
	idleOpts.Adaptive = true
	_, idleStats, err := exp.ProfileRunStats(exp.Tera100(), []*nas.Workload{lu}, idleOpts)
	if err != nil {
		t.Fatal(err)
	}
	rec.AdaptiveIdleLossless = idleStats.ShedEvents == 0 &&
		idleStats.AdaptMaxLevel == 0 &&
		idleStats.AnalyzedEvents == unloaded.AnalyzedEvents
	if !rec.AdaptiveIdleLossless {
		t.Errorf("unloaded adaptive run not measurement-neutral: level %d, shed %d, analyzed %d (want 0, 0, %d)",
			idleStats.AdaptMaxLevel, idleStats.ShedEvents, idleStats.AnalyzedEvents, unloaded.AnalyzedEvents)
	}

	if !record {
		return
	}
	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("results/BENCH_PR6.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/BENCH_PR6.json (static %.2fx, adaptive %.2fx, %d shed)",
		static.OverheadX, adaptive.OverheadX, adaptive.ShedEvents)
}
