package main

import (
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/exp"
	"repro/internal/serviced"
	"repro/internal/trace"
	"repro/internal/wire"
)

// daemon is an in-process profiling daemon serving loopback TCP.
type daemon struct {
	d    *serviced.Daemon
	l    net.Listener
	done chan error
}

func startDaemon(workers int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &daemon{d: serviced.New(serviced.Options{Workers: workers}), l: l, done: make(chan error, 1)}
	go func() { h.done <- h.d.Serve(l) }()
	return h, nil
}

func (h *daemon) addr() string { return h.l.Addr().String() }

// stop closes the listener and waits for Serve to return.
func (h *daemon) stop() error {
	h.l.Close()
	return <-h.done
}

// readTimer wraps a traced run's connection to record the time the
// client spent blocked reading.
type readTimer struct {
	net.Conn
	readTime time.Duration
}

func (c *readTimer) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.readTime += time.Since(t0)
	return n, err
}

// dial connects a client. Untraced runs use client.Dial; traced runs wrap
// the connection so blocking reads can be attributed.
func dial(addr string, tr *tracer) (*client.Client, *readTimer, error) {
	if tr == nil {
		c, err := client.Dial(addr, trace.PackV3)
		return c, nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	cc := &readTimer{Conn: conn}
	c, err := client.New(cc, trace.PackV3)
	return c, cc, err
}

// frameBytesPerEvent is the pack-frame volume a replay puts on the wire
// per event: frame header, writer id and pack bytes.
func frameBytesPerEvent(cp *exp.Capture) (float64, error) {
	var w byteCounter
	for _, p := range cp.Packs {
		if err := wire.WriteFrame(&w, wire.TypePack, wire.EncodePack(uint32(p.Src), p.Data)); err != nil {
			return 0, err
		}
	}
	return float64(w) / float64(cp.Events), nil
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// replayInput is everything a session replays.
type replayInput struct {
	cp        *exp.Capture
	meta      wire.SessionMeta
	closeMeta wire.CloseMeta
	order     []exp.CapturedPack
	counts    []int64
}

func newReplayInput(cp *exp.Capture, seed int64) (*replayInput, error) {
	order := interleave(cp.Packs, seed)
	counts, err := packEvents(order)
	if err != nil {
		return nil, err
	}
	return &replayInput{cp: cp, meta: client.SessionMetaFromCapture(cp), closeMeta: client.CloseMetaFromCapture(cp), order: order, counts: counts}, nil
}

// sendTally accumulates a traced run's client-side send accounting.
type sendTally struct {
	sendTime, creditWait time.Duration
}

// replaySession streams the whole capture closed-loop through one session
// and returns the daemon's final report.
func replaySession(addr string, in *replayInput, out *outcome, tr *tracer, tally *sendTally) (wire.FinalReport, error) {
	sid := tr.begin("session", -1)
	defer tr.end(sid)
	c, cc, err := dial(addr, tr)
	if out.op(err) != nil {
		return wire.FinalReport{}, err
	}
	defer c.Shutdown()
	if _, err := c.Register(in.meta); out.op(err) != nil {
		return wire.FinalReport{}, err
	}
	for _, p := range in.order {
		var wait0 time.Duration
		if cc != nil {
			wait0 = cc.readTime
		}
		id := tr.begin("client.SendPack", sid)
		t0 := time.Now()
		err := c.SendPack(uint32(p.Src), p.Data)
		tr.end(id)
		if tally != nil {
			tally.sendTime += time.Since(t0)
			tally.creditWait += cc.readTime - wait0
		}
		if out.op(err) != nil {
			return wire.FinalReport{}, err
		}
	}
	id := tr.begin("client.Close", sid)
	fr, err := c.Close(in.closeMeta)
	tr.end(id)
	out.op(err)
	return fr, err
}

// checkFinal checks a daemon session's final report.
func checkFinal(out *outcome, key string, in *replayInput, fr wire.FinalReport) {
	checkReport(out, key, fr.Events, sha(fr.Rendered))
	out.check(fr.Events == in.cp.Events, "%s: analyzed %d events, captured %d", key, fr.Events, in.cp.Events)
	out.check(fr.Shed == 0, "%s: %d events shed", key, fr.Shed)
}

// runReplay is the daemon-replay workload: closed-loop replay of a v3
// capture through a daemon with one ingest lane per CPU, no blackboard.
func runReplay(cfg config, out *outcome) error {
	s := cfg.Size
	h, err := startDaemon(runtime.NumCPU())
	if err != nil {
		return err
	}
	defer h.stop()
	key := expectKey("daemon-replay", s.Procs, s.ReplayIters)

	var in *replayInput
	var refs, setups, captures []float64
	for r := 0; r < s.SetupReps; r++ {
		t0 := time.Now()
		ws, err := mix(s.Procs, s.ReplayIters)
		if err != nil {
			return err
		}
		if refs, err = refSeconds(ws); err != nil {
			return err
		}
		c0 := time.Now()
		cp, err := capture(s, s.ReplayIters, trace.PackV3, false)
		if err != nil {
			return err
		}
		captures = append(captures, time.Since(c0).Seconds())
		if in, err = newReplayInput(cp, cfg.Seed); err != nil {
			return err
		}
		// The warm-up session: first sessions in a process run slower.
		fr, err := replaySession(h.addr(), in, out, nil, nil)
		if err != nil {
			return err
		}
		checkFinal(out, key, in, fr)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Metrics["setup_s"] = median(setups)

	timed := cfg.Seconds
	if cfg.Trace {
		timed /= 2
	}
	loop := func(seconds float64, tr *tracer, tally *sendTally) []pass {
		var ps []pass
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			m := startMeter()
			fr, err := replaySession(h.addr(), in, out, tr, tally)
			if err != nil {
				continue
			}
			ps = append(ps, m.stop(fr.Events))
			checkFinal(out, key, in, fr)
		}
		return ps
	}
	passes := loop(timed, nil, nil)
	if len(passes) == 0 {
		out.problem("daemon-replay: no session completed")
		return nil
	}
	sum := summarize(passes)
	out.Metrics["events_per_s"] = sum.EventsPerS
	out.Metrics["cpu_ns_per_event"] = sum.CPUNsPerEvent
	out.Metrics["alloc_bytes_per_event"] = sum.AllocBPerEvent
	out.Metrics["latency_p50_ms"] = quantile(sum.WallMs, 0.5)
	out.Metrics["latency_p90_ms"] = quantile(sum.WallMs, 0.9)
	if out.Metrics["wire_bytes_per_event"], err = frameBytesPerEvent(in.cp); err != nil {
		return err
	}
	out.Metrics["sim_overhead_pct"] = overheadPct(refs, captureWalls(in.cp))
	out.Info["sessions"] = len(passes)

	if !cfg.Trace {
		return nil
	}
	out.Metrics["sim.capture_s"] = median(captures)
	tr := newTracer()
	gw := watchGC()
	st0, err := h.d.Status()
	if err != nil {
		return err
	}
	var tally sendTally
	traced := loop(timed, tr, &tally)
	st1, err := h.d.Status()
	if err != nil {
		return err
	}
	var tracedEvents int64
	for _, p := range traced {
		tracedEvents += p.Events
	}
	if tracedEvents > 0 {
		out.Metrics["serviced.replica_merge_ns_per_event"] = float64(st1.ReplicaMergeNs-st0.ReplicaMergeNs) / float64(tracedEvents)
		out.Metrics["trace_overhead_pct"] = 100 * (summarize(traced).CPUNsPerEvent/sum.CPUNsPerEvent - 1)
	}
	out.Metrics["client.send_us_p50"] = median(tr.durations("client.SendPack", time.Microsecond))
	out.Metrics["client.close_ms"] = median(tr.durations("client.Close", time.Millisecond))
	if tally.sendTime > 0 {
		out.Metrics["client.credit_wait_share"] = float64(tally.creditWait) / float64(tally.sendTime)
	}
	if err := replayLayers(cfg, out, tr, in.cp); err != nil {
		return err
	}
	gc, pause, peak := gw.finish()
	out.Metrics["runtime.gc_cycles"] = gc
	out.Metrics["runtime.gc_pause_ms"] = pause
	out.Metrics["runtime.heap_peak_mb"] = peak
	return tr.write(".bench_build", cfg.Workload, cfg.Seed)
}

// replayLayers times the layers daemon-replay exercises: v3 decode,
// replica fold and epoch merge, and wire framing.
func replayLayers(cfg config, out *outcome, tr *tracer, cp *exp.Capture) error {
	s := cfg.Size
	ws, events, err := decodeWriters(cp)
	if err != nil {
		return err
	}
	id := tr.begin("trace.StreamDecoder.DecodeDispatch", -1)
	dec, err := decodeNsPerEvent(cp, events, s.LayerSeconds)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("analysis.Replica.FoldFunc+MergeReset", -1)
	fold, merge, err := foldLayer(cp, ws, events, laneEpochEvents, s.LayerSeconds)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("wire.WriteFrame+Reader.Next", -1)
	frame, err := frameNs(cp, s.LayerSeconds)
	tr.end(id)
	if err != nil {
		return err
	}
	out.Metrics["trace.decode_v3_ns_per_event"] = dec
	out.Metrics["analysis.fold_ns_per_event"] = fold
	out.Metrics["analysis.merge_reset_us"] = merge
	out.Metrics["wire.frame_ns"] = frame
	return nil
}

// laneEpochEvents is the fold-layer timing's merge cadence: one
// MergeReset per this many events of a writer.
const laneEpochEvents = 4096
