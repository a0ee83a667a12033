package main

import (
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/trace"
)

// coupledPass runs one in-process profiling run of the mix (pack v1, flat
// board) and checks its report. The meter covers exp.ProfileRunStats only.
func coupledPass(s sizes, out *outcome, tr *tracer) (pass, *report.Report, *exp.RunStats, error) {
	ws, err := mix(s.Procs, s.CoupledIters)
	if err != nil {
		return pass{}, nil, nil, err
	}
	id := tr.begin("exp.ProfileRunStats", -1)
	m := startMeter()
	rep, st, err := exp.ProfileRunStats(exp.Tera100(), ws, analysisOpts(trace.PackV1))
	if out.op(err) != nil {
		return pass{}, nil, nil, err
	}
	p := m.stop(st.AnalyzedEvents)
	tr.end(id)
	fp, err := exp.ProfileFingerprint(rep)
	if err != nil {
		return pass{}, nil, nil, err
	}
	checkReport(out, expectKey("coupled-v1", s.Procs, s.CoupledIters), st.AnalyzedEvents, fp)
	out.check(st.ShedEvents == 0, "coupled-v1: %d events shed", st.ShedEvents)
	return p, rep, st, nil
}

// runCoupled is the coupled-v1 workload: the paper's online coupling run
// entirely in process, the only workload whose events cross the per-event
// blackboard path.
func runCoupled(cfg config, out *outcome) error {
	s := cfg.Size
	var refs []float64
	var setups []float64
	for r := 0; r < s.SetupReps; r++ {
		t0 := time.Now()
		ws, err := mix(s.Procs, s.CoupledIters)
		if err != nil {
			return err
		}
		if refs, err = refSeconds(ws); err != nil {
			return err
		}
		// The warm-up pass: first runs in a process measured slower.
		if _, _, _, err := coupledPass(s, out, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Metrics["setup_s"] = median(setups)

	timed := cfg.Seconds
	if cfg.Trace {
		timed /= 2
	}
	var last *report.Report
	var lastStats *exp.RunStats
	loop := func(seconds float64, tr *tracer) []pass {
		var ps []pass
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			p, rep, st, err := coupledPass(s, out, tr)
			if err != nil {
				continue
			}
			ps = append(ps, p)
			if lastStats != nil {
				out.check(st.RootIngestBytes == lastStats.RootIngestBytes, "coupled-v1: root ingest bytes changed between passes")
				out.check(rep.Chapters[len(rep.Chapters)-1].WallTime == last.Chapters[len(last.Chapters)-1].WallTime, "coupled-v1: virtual wall time changed between passes")
			}
			last, lastStats = rep, st
		}
		return ps
	}
	passes := loop(timed, nil)
	if len(passes) == 0 || last == nil {
		out.problem("coupled-v1: no pass completed")
		return nil
	}
	sum := summarize(passes)
	out.Metrics["events_per_s"] = sum.EventsPerS
	out.Metrics["cpu_ns_per_event"] = sum.CPUNsPerEvent
	out.Metrics["alloc_bytes_per_event"] = sum.AllocBPerEvent
	out.Metrics["latency_p50_ms"] = quantile(sum.WallMs, 0.5)
	out.Metrics["latency_p90_ms"] = quantile(sum.WallMs, 0.9)
	out.Metrics["wire_bytes_per_event"] = float64(lastStats.RootIngestBytes) / float64(lastStats.AnalyzedEvents)
	walls := make([]time.Duration, len(last.Chapters))
	for i, ch := range last.Chapters {
		walls[i] = ch.WallTime
	}
	out.Metrics["sim_overhead_pct"] = overheadPct(refs, walls)
	out.Info["passes"] = len(passes)

	if !cfg.Trace {
		return nil
	}
	tr := newTracer()
	gw := watchGC()
	traced := loop(timed, tr)
	if err := coupledLayers(cfg, out, tr, last); err != nil {
		return err
	}
	gc, pause, peak := gw.finish()
	out.Metrics["runtime.gc_cycles"] = gc
	out.Metrics["runtime.gc_pause_ms"] = pause
	out.Metrics["runtime.heap_peak_mb"] = peak
	if len(traced) > 0 {
		out.Metrics["trace_overhead_pct"] = 100 * (summarize(traced).CPUNsPerEvent/sum.CPUNsPerEvent - 1)
	}
	return tr.write(".bench_build", cfg.Workload, cfg.Seed)
}

// coupledLayers times the layers coupled-v1 exercises: the simulated
// capture, v1 and v3 pack encoding, blackboard ingest of v1 packs, and
// report rendering.
func coupledLayers(cfg config, out *outcome, tr *tracer, rep *report.Report) error {
	s := cfg.Size
	id := tr.begin("exp.CaptureRun", -1)
	t0 := time.Now()
	cp, err := capture(s, s.CoupledIters, trace.PackV1, false)
	if out.op(err) != nil {
		return err
	}
	out.Metrics["sim.capture_s"] = time.Since(t0).Seconds()
	tr.end(id)

	ws, events, err := decodeWriters(cp)
	if err != nil {
		return err
	}
	out.check(events == cp.Events, "coupled-v1: capture decodes to %d events, recorded %d", events, cp.Events)
	for _, v := range []struct {
		name    string
		version int
	}{{"trace.encode_v1_ns_per_event", trace.PackV1}, {"trace.encode_v3_ns_per_event", trace.PackV3}} {
		id := tr.begin("trace.Builder", -1)
		ns, err := encodeNsPerEvent(ws, events, v.version, s.LayerSeconds)
		tr.end(id)
		if err != nil {
			return err
		}
		out.Metrics[v.name] = ns
	}

	order := interleave(cp.Packs, cfg.Seed)
	var best []float64
	var st0 struct{ posted, backoffs, gap float64 }
	for r := 0; r < 3; r++ {
		id := tr.begin("analysis.Dispatcher.PostRaw+Drain", -1)
		d, st, gap, err := boardIngest(cp, order, runtime.GOMAXPROCS(0))
		tr.end(id)
		if out.op(err) != nil {
			return err
		}
		best = append(best, float64(d.Nanoseconds())/float64(events))
		st0.posted += float64(st.Posted) / 3
		st0.backoffs += float64(st.Backoffs) / 3
		st0.gap = math.Max(st0.gap, float64(gap))
	}
	out.Metrics["blackboard.ingest_ns_per_event"] = median(best)
	out.Metrics["blackboard.entries_per_event"] = st0.posted / float64(events)
	out.Metrics["blackboard.backoffs"] = st0.backoffs
	out.Metrics["blackboard.ledger_gap"] = st0.gap
	out.check(st0.gap == 0, "coupled-v1: blackboard ledger gap %v", st0.gap)

	render, err := repeat(s.LayerSeconds, func() error {
		id := tr.begin("report.Render", -1)
		defer tr.end(id)
		return rep.Render(io.Discard)
	})
	if err != nil {
		return err
	}
	js, err := repeat(s.LayerSeconds, func() error {
		id := tr.begin("report.WriteJSON", -1)
		defer tr.end(id)
		return rep.WriteJSON(io.Discard, true)
	})
	if err != nil {
		return err
	}
	out.Metrics["report.render_ms"] = float64(render.Nanoseconds()) / 1e6
	out.Metrics["report.json_ms"] = float64(js.Nanoseconds()) / 1e6
	return nil
}
