package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/trace"
)

type benchRecordPR10 struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Sweep is the virtual-clock latency model: per-phase push rate vs
	// event-to-report-update lag, with the catch-up SLO verdict.
	Sweep *exp.WindowLagResult `json:"sweep"`
	// WindowIdentity maps each profiled configuration to its per-window
	// series fingerprint; all values must be equal.
	WindowIdentity map[string]string `json:"window_identity"`
}

// windowSeriesFingerprint hashes every chapter's per-window canonical
// partial encodings, in (chapter, window index) order. It must run
// BEFORE the report is rendered: rendering reads wait-state totals,
// which settles the lazily-paired queues and legitimately changes the
// canonical bytes of later snapshots.
func windowSeriesFingerprint(t *testing.T, rep *report.Report) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	windows := 0
	for _, ch := range rep.Chapters {
		if ch.Windows == nil {
			t.Fatal("chapter has no windowed series")
		}
		for _, idx := range ch.Windows.Indices() {
			var ib [8]byte
			for i := 0; i < 8; i++ {
				ib[i] = byte(uint64(idx) >> (8 * i))
			}
			h.Write(ib[:])
			buf = ch.Windows.WindowPartial(idx).AppendCanonical(buf[:0])
			h.Write(buf)
			windows++
		}
	}
	if windows < 2 {
		t.Fatalf("only %d populated windows: geometry too coarse for an identity check", windows)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRecordWindowedBench is PR10's acceptance gate and bench recorder.
// Two assertions:
//
// First, the latency SLO story: the deterministic burst model's lag must
// stay flat through the steady phase, rise during the 4x-overload burst,
// and drain back under the SLO once the push rate relaxes — the
// event-to-report-update latency behavior the windowed analysis is for.
//
// Second, per-window byte-identity: the same two applications profiled
// flat, through a two-tier reduction tree, and with 4-way replica
// parallelism must produce the byte-identical per-window series — the
// transport topology and the parallelism may change how each window's
// profile is computed, never its content.
//
// With RECORD_BENCH set it additionally writes results/BENCH_PR10.json;
// without it, short mode skips.
func TestRecordWindowedBench(t *testing.T) {
	record := os.Getenv("RECORD_BENCH") != ""
	if !record && testing.Short() {
		t.Skip("short mode and RECORD_BENCH unset")
	}

	// --- burst / catch-up SLO sweep ---
	cfg := exp.DefaultWindowLagConfig()
	res, err := exp.WindowLagSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steady, burst, recover exp.WindowLagPoint
	for _, pt := range res.Points {
		switch pt.Phase {
		case "steady":
			steady = pt
		case "burst":
			burst = pt
		case "recover":
			recover = pt
		}
		t.Logf("%-8s gap=%-6v end lag=%-10v peak lag=%-10v late=%d",
			pt.Phase, time.Duration(pt.GapNs), time.Duration(pt.EndLagNs),
			time.Duration(pt.PeakLagNs), pt.LateEvents)
	}
	if steady.PeakLagNs > cfg.SLONs {
		t.Errorf("steady-phase peak lag %v exceeds the SLO %v: the analyzer cannot keep up unloaded",
			time.Duration(steady.PeakLagNs), time.Duration(cfg.SLONs))
	}
	if burst.PeakLagNs <= steady.PeakLagNs || burst.PeakLagNs <= cfg.SLONs {
		t.Errorf("burst peak lag %v did not rise above steady %v and the SLO %v: the burst is not a burst",
			time.Duration(burst.PeakLagNs), time.Duration(steady.PeakLagNs), time.Duration(cfg.SLONs))
	}
	if !res.SLOMet {
		t.Errorf("final lag %v exceeds the SLO %v: the analyzer never caught back up",
			time.Duration(res.FinalLagNs), time.Duration(res.SLONs))
	}
	if recover.EndLagNs > cfg.SLONs {
		t.Errorf("recovery-phase end lag %v exceeds the SLO %v", time.Duration(recover.EndLagNs), time.Duration(cfg.SLONs))
	}
	if res.Windows < 2 {
		t.Errorf("sweep produced %d windows, want several", res.Windows)
	}
	t.Logf("%d windows, max lag %v, final lag %v, %d late events, completeness >= %.2f%%",
		res.Windows, time.Duration(res.MaxLagNs), time.Duration(res.FinalLagNs),
		res.LateEvents, 100*res.MinCompleteness)

	// --- per-window byte-identity across transport/parallelism ---
	p := exp.Tera100()
	lu, err := nas.LU(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := nas.CG(nas.ClassC, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*nas.Workload{lu, cg}
	base := exp.ProfileOptions{
		Analyzers:        4,
		Workers:          1,
		PackBytes:        1 << 14,
		WaitState:        true,
		TemporalWindowNs: 1e7,
		Callsites:        true,
		Sizes:            true,
		PackVersion:      trace.PackV3,
		WindowNs:         (10 * time.Millisecond).Nanoseconds(),
	}
	configs := []struct {
		name string
		mut  func(*exp.ProfileOptions)
	}{
		{"flat", func(o *exp.ProfileOptions) {}},
		{"tree-L2", func(o *exp.ProfileOptions) {
			o.TreeLevels = 2
			o.TreeFanin = 2
			o.TreeFlushPacks = 4
		}},
		{"replicas-4", func(o *exp.ProfileOptions) {
			o.Replicas = 4
			o.Workers = 4
		}},
	}
	identity := map[string]string{}
	var golden string
	for _, c := range configs {
		opts := base
		c.mut(&opts)
		rep, _, err := exp.ProfileRunStats(p, ws, opts)
		if err != nil {
			t.Fatal(err)
		}
		fp := windowSeriesFingerprint(t, rep)
		identity[c.name] = fp
		t.Logf("%-10s window-series fingerprint %s", c.name, fp[:16])
		if golden == "" {
			golden = fp
		} else if fp != golden {
			t.Errorf("%s per-window series fingerprint %s != flat %s: topology/parallelism changed window content",
				c.name, fp[:12], golden[:12])
		}
	}

	if !record {
		return
	}
	rec := benchRecordPR10{
		Benchmark:      "TestRecordWindowedBench",
		Workload:       "virtual-clock burst model (steady/burst/recover) + LU.C@16,CG.C@16 windowed at 10ms",
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		Sweep:          res,
		WindowIdentity: identity,
	}
	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("results/BENCH_PR10.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/BENCH_PR10.json (max lag %v, SLO met: %v)", time.Duration(res.MaxLagNs), res.SLOMet)
}
