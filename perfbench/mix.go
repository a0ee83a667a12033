package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/nas"
	"repro/internal/trace"
)

// sizes fixes how much work a run does. The defaults are the benchmark;
// the tests shrink them.
type sizes struct {
	// Procs is the rank count of each of the three applications.
	Procs int
	// CoupledIters is the timestep count of one coupled-v1 pass.
	CoupledIters int
	// ReplayIters is the timestep count of the daemon-replay capture.
	ReplayIters int
	// LiveIters is the timestep count of the daemon-live capture.
	LiveIters int
	// LiveRate is daemon-live's offered load in events per second.
	LiveRate float64
	// LiveDiffEvery is the number of packs between two Diff queries.
	LiveDiffEvery int
	// SetupReps is how many times a run sets up; setup_s is the median.
	SetupReps int
	// LayerSeconds bounds each per-layer timing loop of a traced run.
	LayerSeconds float64
}

var defaultSizes = sizes{
	Procs:         256,
	CoupledIters:  4,
	ReplayIters:   8,
	LiveIters:     2,
	LiveRate:      50000,
	LiveDiffEvery: 24,
	SetupReps:     3,
	LayerSeconds:  0.3,
}

// Virtual-time window geometry of daemon-live's windowed sessions. The
// grace period exceeds every run's virtual length, so no event is ever
// late and the report cannot depend on arrival order.
const (
	liveWindowNs = int64(200 * time.Millisecond)
	liveGraceNs  = int64(100 * time.Second)
)

// mix builds the three-application workload every scenario runs: CG.C,
// LU.C and BT.C side by side, each at the given rank count.
func mix(procs, iters int) ([]*nas.Workload, error) {
	cg, err := nas.CG(nas.ClassC, procs, iters)
	if err != nil {
		return nil, err
	}
	lu, err := nas.LU(nas.ClassC, procs, iters)
	if err != nil {
		return nil, err
	}
	bt, err := nas.BT(nas.ClassC, procs, iters)
	if err != nil {
		return nil, err
	}
	return []*nas.Workload{cg, lu, bt}, nil
}

// analysisOpts is the module selection all three workloads analyze with:
// wait states, call sites and message sizes on top of the base profile.
func analysisOpts(packVersion int) exp.ProfileOptions {
	return exp.ProfileOptions{PackVersion: packVersion, WaitState: true, Callsites: true, Sizes: true}
}

// refSeconds runs every application of the mix uninstrumented and returns
// its virtual Init..Finalize time in seconds.
func refSeconds(ws []*nas.Workload) ([]float64, error) {
	p := exp.Tera100()
	refs := make([]float64, len(ws))
	for i, w := range ws {
		pt, err := exp.MeasureOverhead(p, w, exp.ToolReference, 0)
		if err != nil {
			return nil, err
		}
		refs[i] = pt.RefSeconds
	}
	return refs, nil
}

// overheadPct is the paper's overhead metric over the mix: the mean
// relative virtual-time slowdown of the instrumented applications.
func overheadPct(refs []float64, walls []time.Duration) float64 {
	var sum float64
	for i, r := range refs {
		sum += 100 * (walls[i].Seconds() - r) / r
	}
	return sum / float64(len(refs))
}

// capture records the mix's analyzer-bound packs in the given format.
func capture(s sizes, iters, packVersion int, windowed bool) (*exp.Capture, error) {
	ws, err := mix(s.Procs, iters)
	if err != nil {
		return nil, err
	}
	opts := analysisOpts(packVersion)
	if windowed {
		opts.WindowNs = liveWindowNs
		opts.WindowGraceNs = liveGraceNs
	}
	return exp.CaptureRun(exp.Tera100(), ws, opts)
}

func captureWalls(cp *exp.Capture) []time.Duration {
	walls := make([]time.Duration, len(cp.Apps))
	for i, a := range cp.Apps {
		walls[i] = a.WallTime
	}
	return walls
}

// packEvents returns each captured pack's event count.
func packEvents(packs []exp.CapturedPack) ([]int64, error) {
	counts := make([]int64, len(packs))
	for i, p := range packs {
		h, err := trace.PeekHeader(p.Data)
		if err != nil {
			return nil, err
		}
		if h.Version != trace.PackAudit {
			counts[i] = int64(h.Count)
		}
	}
	return counts, nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// expectation is what every run of one workload configuration must
// reproduce: the analyzed event count and the report fingerprint
// (exp.ProfileFingerprint for coupled-v1, the sha256 of the daemon's
// FinalReport.Rendered for daemon-*).
type expectation struct {
	Events      int64
	Fingerprint string
}

// expectKey names a workload configuration in the expectations table.
func expectKey(workload string, procs, iters int) string {
	return fmt.Sprintf("%s procs=%d iters=%d", workload, procs, iters)
}

// checkReport compares one report against the stored expectation.
func checkReport(out *outcome, key string, events int64, fingerprint string) {
	want, ok := expectations[key]
	if !ok {
		out.problem("no stored expectation for %q (got events=%d fingerprint=%s)", key, events, fingerprint)
		return
	}
	out.check(events == want.Events, "%s: analyzed %d events, want %d", key, events, want.Events)
	out.check(fingerprint == want.Fingerprint, "%s: report fingerprint %s, want %s", key, fingerprint, want.Fingerprint)
}
