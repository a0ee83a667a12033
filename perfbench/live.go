package main

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/exp"
	"repro/internal/trace"
	"repro/internal/wire"
)

// liveRun is one open-loop session's measurements.
type liveRun struct {
	Final wire.FinalReport
	// LatencyMs holds one sample per Diff: from the due time of the newest
	// pack the Diff covers to the moment its delta was applied.
	LatencyMs []float64
	// LateMs holds, per pack, how late the generator sent it.
	LateMs []float64
	// Achieved is analyzed events per second from the session's start to
	// the last applied Diff.
	Achieved float64
	// DiffBytes holds each Diff answer's encoded partial bytes.
	DiffBytes []float64
}

// saturation reports why a session did not keep up with its offered
// rate, or "" when it did. Below saturation the generator falls behind
// only while a Diff is in flight, by less than the interval between two
// Diffs, and then catches up, so its lateness stays bounded; above it the
// backlog, and with it the lateness, grows for as long as the session
// lasts. The session fails when the median lateness of its last quarter
// exceeds that of its first quarter by more than one Diff interval, or
// when it achieved less than 95% of the offered rate.
func (r liveRun) saturation(rate float64, diffIntervalMs float64) string {
	if r.Achieved < 0.95*rate {
		return fmt.Sprintf("achieved %.0f ev/s of %.0f offered", r.Achieved, rate)
	}
	q := len(r.LateMs) / 4
	if q == 0 {
		return ""
	}
	first, last := median(r.LateMs[:q]), median(r.LateMs[len(r.LateMs)-q:])
	if last-first > diffIntervalMs {
		return fmt.Sprintf("generator lateness grew from %.1f ms to %.1f ms (median of first and last quarter), more than the %.1f ms between Diffs", first, last, diffIntervalMs)
	}
	return ""
}

// liveSession replays the capture open-loop: pack i is due when the
// generator, running at rate events/s, has produced every event up to and
// including it. Every diffEvery packs, and after the last, the client asks
// for a Diff and applies it; at the end the applied state must equal a
// fresh Snapshot.
func liveSession(addr string, in *replayInput, rate float64, diffEvery int, out *outcome, tr *tracer) (liveRun, error) {
	var run liveRun
	sid := tr.begin("session", -1)
	defer tr.end(sid)
	c, _, err := dial(addr, tr)
	if out.op(err) != nil {
		return run, err
	}
	defer c.Shutdown()
	if _, err := c.Register(in.meta); out.op(err) != nil {
		return run, err
	}
	rp := client.NewDiffReplayer(in.meta)
	diff := func(due time.Time) error {
		id := tr.begin("client.Diff", sid)
		st, err := c.Diff(rp.Cursor())
		tr.end(id)
		if out.op(err) != nil {
			return err
		}
		var b int
		for _, a := range st.Apps {
			b += len(a)
		}
		run.DiffBytes = append(run.DiffBytes, float64(b))
		id = tr.begin("client.DiffReplayer.Apply", sid)
		err = rp.Apply(st)
		tr.end(id)
		if out.op(err) != nil {
			return err
		}
		run.LatencyMs = append(run.LatencyMs, float64(time.Since(due).Nanoseconds())/1e6)
		return nil
	}
	t0 := time.Now()
	var cum int64
	var due time.Time
	for i, p := range in.order {
		cum += in.counts[i]
		due = t0.Add(time.Duration(float64(cum) / rate * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		run.LateMs = append(run.LateMs, float64(max(time.Since(due), 0).Nanoseconds())/1e6)
		id := tr.begin("client.SendPack", sid)
		err := c.SendPack(uint32(p.Src), p.Data)
		tr.end(id)
		if out.op(err) != nil {
			return run, err
		}
		if (i+1)%diffEvery == 0 && i+1 < len(in.order) {
			if err := diff(due); err != nil {
				return run, err
			}
		}
	}
	if err := diff(due); err != nil {
		return run, err
	}
	run.Achieved = float64(cum) / time.Since(t0).Seconds()
	snap, err := c.Snapshot()
	if out.op(err) != nil {
		return run, err
	}
	if err := rp.Verify(snap); err != nil {
		out.problem("daemon-live: diff-replayed state: %v", err)
	}
	id := tr.begin("client.Close", sid)
	run.Final, err = c.Close(in.closeMeta)
	tr.end(id)
	out.op(err)
	return run, err
}

// runLive is the daemon-live workload: open-loop replay at a fixed rate
// below saturation into a windowed session on a one-lane daemon (the
// profilerd default), with Diff queries running alongside the writes.
func runLive(cfg config, out *outcome) error {
	s := cfg.Size
	h, err := startDaemon(1)
	if err != nil {
		return err
	}
	defer h.stop()
	key := expectKey("daemon-live", s.Procs, s.LiveIters)

	var in *replayInput
	var refs, setups []float64
	for r := 0; r < s.SetupReps; r++ {
		t0 := time.Now()
		ws, err := mix(s.Procs, s.LiveIters)
		if err != nil {
			return err
		}
		if refs, err = refSeconds(ws); err != nil {
			return err
		}
		cp, err := capture(s, s.LiveIters, trace.PackV3, true)
		if err != nil {
			return err
		}
		if in, err = newReplayInput(cp, cfg.Seed); err != nil {
			return err
		}
		// The warm-up session runs unpaced: it exercises every code path
		// of a live session without spending set-up time asleep.
		run, err := liveSession(h.addr(), in, 1e12, s.LiveDiffEvery, out, nil)
		if err != nil {
			return err
		}
		checkFinal(out, key, in, run.Final)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Metrics["setup_s"] = median(setups)

	timed := cfg.Seconds
	if cfg.Trace {
		timed /= 2
	}
	var lateAll, diffBytes []float64
	windows := 0
	// The offered load between two Diffs, in milliseconds.
	diffIntervalMs := 1e3 * float64(s.LiveDiffEvery) * float64(in.cp.Events) / float64(len(in.order)) / s.LiveRate
	loop := func(seconds float64, tr *tracer) ([]pass, []liveRun) {
		var ps, satPasses []pass
		var runs, sat []liveRun
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			m := startMeter()
			run, err := liveSession(h.addr(), in, s.LiveRate, s.LiveDiffEvery, out, tr)
			if err != nil {
				continue
			}
			p := m.stop(run.Final.Events)
			checkFinal(out, key, in, run.Final)
			lateAll = append(lateAll, run.LateMs...)
			diffBytes = append(diffBytes, run.DiffBytes...)
			windows = run.Final.Windows
			if why := run.saturation(s.LiveRate, diffIntervalMs); why != "" {
				// A saturated session measures queue growth, not latency:
				// it counts as a failed session and contributes no sample
				// unless no session at all kept up.
				out.Failed++
				out.problem("daemon-live: session above saturation: %s", why)
				sat = append(sat, run)
				satPasses = append(satPasses, p)
				continue
			}
			ps = append(ps, p)
			runs = append(runs, run)
		}
		if len(ps) == 0 {
			return satPasses, sat
		}
		return ps, runs
	}
	passes, runs := loop(timed, nil)
	if len(passes) == 0 {
		out.problem("daemon-live: no session completed")
		return nil
	}
	// Latency quantiles are taken per session and reported as the median
	// over sessions, like every other per-pass figure.
	var p50, p90, achieved []float64
	samples := 0
	for _, r := range runs {
		p50 = append(p50, quantile(r.LatencyMs, 0.5))
		p90 = append(p90, quantile(r.LatencyMs, 0.9))
		achieved = append(achieved, r.Achieved)
		samples += len(r.LatencyMs)
	}
	sum := summarize(passes)
	out.Metrics["events_per_s"] = median(achieved)
	out.Metrics["cpu_ns_per_event"] = sum.CPUNsPerEvent
	out.Metrics["alloc_bytes_per_event"] = sum.AllocBPerEvent
	out.Metrics["latency_p50_ms"] = median(p50)
	out.Metrics["latency_p90_ms"] = median(p90)
	if out.Metrics["wire_bytes_per_event"], err = frameBytesPerEvent(in.cp); err != nil {
		return err
	}
	out.Metrics["sim_overhead_pct"] = overheadPct(refs, captureWalls(in.cp))
	out.Info["sessions"] = len(passes)
	out.Info["latency_samples"] = samples

	if !cfg.Trace {
		return nil
	}
	tr := newTracer()
	gw := watchGC()
	lateAll, diffBytes = nil, nil
	traced, _ := loop(timed, tr)
	if len(traced) > 0 {
		out.Metrics["trace_overhead_pct"] = 100 * (summarize(traced).CPUNsPerEvent/sum.CPUNsPerEvent - 1)
	}
	out.Metrics["gen.late_p50_ms"] = median(lateAll)
	out.Metrics["gen.late_max_ms"] = quantile(lateAll, 1)
	out.Metrics["client.diff_rtt_ms_p50"] = median(tr.durations("client.Diff", time.Millisecond))
	out.Metrics["client.apply_ms_p50"] = median(tr.durations("client.DiffReplayer.Apply", time.Millisecond))
	out.Metrics["analysis.diff_bytes_p50"] = median(diffBytes)
	out.Metrics["analysis.windows_sealed"] = float64(windows)
	if err := liveLayers(cfg, out, tr, in.cp); err != nil {
		return err
	}
	gc, pause, peak := gw.finish()
	out.Metrics["runtime.gc_cycles"] = gc
	out.Metrics["runtime.gc_pause_ms"] = pause
	out.Metrics["runtime.heap_peak_mb"] = peak
	return tr.write(".bench_build", cfg.Workload, cfg.Seed)
}

// liveLayers times the layers daemon-live exercises beyond the client
// calls: windowed replica fold, and the seal path of a session: partial
// flush, decode and merge into the cumulative state.
func liveLayers(cfg config, out *outcome, tr *tracer, cp *exp.Capture) error {
	s := cfg.Size
	ws, events, err := decodeWriters(cp)
	if err != nil {
		return err
	}
	id := tr.begin("analysis.Replica.FoldFunc windowed", -1)
	fold, _, err := foldLayer(cp, ws, events, laneEpochEvents, s.LayerSeconds)
	tr.end(id)
	if err != nil {
		return err
	}
	out.Metrics["analysis.window_fold_ns_per_event"] = fold

	apps := map[uint32]exp.CaptureApp{}
	for _, a := range cp.Apps {
		apps[a.AppID] = a
	}
	// Seal the stream in as many epochs as a live session issues Diffs.
	epochs := max(1, len(cp.Packs)/s.LiveDiffEvery)
	var flush, decode, merge []float64
	_, err = repeat(s.LayerSeconds, func() error {
		deltas := map[uint32]*analysis.Partial{}
		cums := map[uint32]*analysis.Partial{}
		for _, a := range cp.Apps {
			deltas[a.AppID] = analysis.NewPartial(a.AppID, partialOpts(cp, a))
			cums[a.AppID] = analysis.NewPartial(a.AppID, partialOpts(cp, a))
		}
		for e := 0; e < epochs; e++ {
			for _, w := range ws {
				lo, hi := len(w.Events)*e/epochs, len(w.Events)*(e+1)/epochs
				for i := lo; i < hi; i++ {
					deltas[w.AppID].AddEvent(&w.Events[i])
				}
			}
			for _, a := range cp.Apps {
				t0 := time.Now()
				buf := deltas[a.AppID].Flush(nil, e == epochs-1)
				t1 := time.Now()
				dp, err := analysis.DecodePartial(buf)
				if err != nil {
					return err
				}
				t2 := time.Now()
				if err := cums[a.AppID].Merge(dp); err != nil {
					return err
				}
				t3 := time.Now()
				flush = append(flush, float64(t1.Sub(t0).Nanoseconds())/1e3)
				decode = append(decode, float64(t2.Sub(t1).Nanoseconds())/1e3)
				merge = append(merge, float64(t3.Sub(t2).Nanoseconds())/1e3)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.Metrics["analysis.partial_flush_us"] = median(flush)
	out.Metrics["analysis.partial_decode_us"] = median(decode)
	out.Metrics["analysis.partial_merge_us"] = median(merge)
	return nil
}
