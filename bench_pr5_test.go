package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/trace"
)

type treePoint struct {
	Topology           string  `json:"topology"`
	Levels             int     `json:"levels"`
	Fanin              int     `json:"fanin"`
	FlushPacks         int     `json:"flush_packs"`
	AggregatorRanks    int     `json:"aggregator_ranks"`
	AppSeconds         float64 `json:"app_seconds"`
	AnalyzedEvents     int64   `json:"analyzed_events"`
	RootIngestBytes    int64   `json:"root_ingest_bytes"`
	RootPosts          int64   `json:"root_posts"`
	RootIngestRate     float64 `json:"root_ingest_bytes_per_s"`
	IngestReductionPct float64 `json:"ingest_reduction_pct"`
	ReducerMerges      int64   `json:"reducer_merges"`
	MatchesFlat        bool    `json:"matches_flat"`
}

type treeFaultPoint struct {
	Topology        string  `json:"topology"`
	KilledLocal     int     `json:"killed_local"`
	KillAtMs        float64 `json:"kill_at_ms"`
	CompletenessPct float64 `json:"completeness_pct"`
	Reparented      int64   `json:"reparented_blocks"`
	UpFailovers     int64   `json:"up_failovers"`
	UpQuarantines   int64   `json:"up_quarantines"`
	UpDropped       int64   `json:"up_dropped"`
	ReportProduced  bool    `json:"report_produced"`
}

type benchRecordPR5 struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	GoVersion string `json:"go_version"`
	// SweepV1 streams the seed's fixed 256-byte records; SweepV3 the
	// compact delta+varint stream-dictionary packs. Each sweep's first
	// point is its own flat baseline.
	SweepV1 []treePoint    `json:"sweep_v1"`
	SweepV3 []treePoint    `json:"sweep_v3"`
	Fault   treeFaultPoint `json:"aggregator_kill"`
}

func toTreePoints(pts []exp.TreePoint) []treePoint {
	out := make([]treePoint, 0, len(pts))
	for _, pt := range pts {
		out = append(out, treePoint{
			Topology:           pt.Config.String(),
			Levels:             pt.Config.Levels,
			Fanin:              pt.Config.Fanin,
			FlushPacks:         pt.Config.FlushPacks,
			AggregatorRanks:    pt.TreeRanks,
			AppSeconds:         pt.AppSeconds,
			AnalyzedEvents:     pt.AnalyzedEvents,
			RootIngestBytes:    pt.RootIngestBytes,
			RootPosts:          pt.RootPosts,
			RootIngestRate:     pt.RootIngestRate,
			IngestReductionPct: pt.IngestReductionPct,
			ReducerMerges:      pt.ReducerMerges,
			MatchesFlat:        pt.MatchesFlat,
		})
	}
	return out
}

// TestRecordTreeBench is PR5's acceptance gate and bench recorder. Two
// concurrent applications are profiled with every analysis module on,
// flat and through reduction trees at equal event volume. It always
// asserts the headline bounds — every tree topology's profile is
// byte-identical to the flat run (the masked-report fingerprint), and on
// the default wire format both the 2-level and the 3-level tree at
// fan-in 8 cut root-blackboard ingest bytes/sec by at least 50 % — plus
// the degraded-mode bound: an interior aggregator killed mid-run still
// yields a full report with bounded, visible loss. With RECORD_BENCH set
// it additionally writes results/BENCH_PR5.json; without it, short mode
// skips.
//
// The v3 sweep bounds only the tree-L3 point: v3 packs are ~25x
// smaller per event, while wait-state analysis must ship its pending
// send/recv queues event-granular until both sides of a channel meet at
// a common ancestor. With one aggregation tier covering all leaves
// (tree-L3) the pendings settle below the root and the tree still wins;
// with the root as the only meeting point (tree-L2) partial traffic can
// exceed the tiny v3 packs. The recorded numbers document exactly that
// trade.
func TestRecordTreeBench(t *testing.T) {
	record := os.Getenv("RECORD_BENCH") != ""
	if !record && testing.Short() {
		t.Skip("short mode and RECORD_BENCH unset")
	}
	lu, err := nas.LU(nas.ClassC, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := nas.CG(nas.ClassC, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []*nas.Workload{lu, cg}
	base := exp.ProfileOptions{
		Workers:          1,
		WaitState:        true,
		TemporalWindowNs: (10 * time.Millisecond).Nanoseconds(),
		Callsites:        true,
		Sizes:            true,
	}
	configs := []exp.TreeConfig{
		{Levels: 2, Fanin: 8, FlushPacks: 4},
		{Levels: 3, Fanin: 8, FlushPacks: 4},
		{Levels: 3, Fanin: 4, FlushPacks: 4},
	}
	rec := benchRecordPR5{
		Benchmark: "TestRecordTreeBench",
		Workload:  "LU.C@64 + CG.C@64 concurrently, 4 timesteps, all analysis modules",
		GoVersion: runtime.Version(),
	}

	p := exp.Tera100()
	v1, err := exp.TreeScalingSweep(p, workloads, base, configs)
	if err != nil {
		t.Fatal(err)
	}
	rec.SweepV1 = toTreePoints(v1)
	for _, pt := range v1[1:] {
		if !pt.MatchesFlat {
			t.Errorf("v1 %s: profile diverged from the flat run", pt.Config)
		}
		if pt.AnalyzedEvents != v1[0].AnalyzedEvents {
			t.Errorf("v1 %s: %d events != flat's %d", pt.Config, pt.AnalyzedEvents, v1[0].AnalyzedEvents)
		}
		// The enforced minimum is 50 %; measured reductions on this
		// workload are > 90 % (the margin absorbs codec and table tuning).
		if pt.Config.Fanin <= 8 && pt.IngestReductionPct < 50 {
			t.Errorf("v1 %s: root ingest reduction %.1f%%, want >= 50%%", pt.Config, pt.IngestReductionPct)
		}
	}

	v3opts := base
	v3opts.PackVersion = trace.PackV3
	v3, err := exp.TreeScalingSweep(p, workloads, v3opts, []exp.TreeConfig{
		{Levels: 2, Fanin: 8, FlushPacks: 16},
		{Levels: 3, Fanin: 8, FlushPacks: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.SweepV3 = toTreePoints(v3)
	for _, pt := range v3[1:] {
		if !pt.MatchesFlat {
			t.Errorf("v3 %s: profile diverged from the flat run", pt.Config)
		}
	}
	// The tree with an interior tier settles wait-state pendings below the
	// root and must still beat even the compact v3 wire format.
	if pt := v3[2]; pt.IngestReductionPct < 50 {
		t.Errorf("v3 %s: root ingest reduction %.1f%%, want >= 50%%", pt.Config, pt.IngestReductionPct)
	}

	// Degraded mode: fail-stop an interior aggregator halfway through.
	fcfg := exp.TreeConfig{Levels: 3, Fanin: 2, FlushPacks: 1}
	fpt, err := exp.TreeFaultRun(p, workloads, base, fcfg, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rec.Fault = treeFaultPoint{
		Topology:        fcfg.String(),
		KilledLocal:     fpt.KilledLocal,
		KillAtMs:        float64(fpt.KillAt) / float64(time.Millisecond),
		CompletenessPct: fpt.CompletenessPct,
		Reparented:      fpt.Reparented,
		UpFailovers:     fpt.UpFailovers,
		UpQuarantines:   fpt.UpQuarantines,
		UpDropped:       fpt.UpDropped,
		ReportProduced:  fpt.ReportProduced,
	}
	if !fpt.ReportProduced {
		t.Error("aggregator kill: no report produced")
	}
	if fpt.CompletenessPct < 50 || fpt.CompletenessPct > 100 {
		t.Errorf("aggregator kill: completeness %.1f%% outside (50, 100]", fpt.CompletenessPct)
	}
	if fpt.UpQuarantines == 0 {
		t.Error("aggregator kill: the writers never quarantined the dead endpoint")
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
	if err := os.WriteFile("results/BENCH_PR5.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/BENCH_PR5.json (%d v1 points, %d v3 points)", len(rec.SweepV1), len(rec.SweepV3))
}
