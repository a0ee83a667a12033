package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/blackboard"
	"repro/internal/exp"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The per-layer timings of a traced run call one public entry point of a
// layer on inputs taken from the run's own capture, outside the end-to-end
// loop, so each figure is that layer's cost alone.

// repeat runs fn at least three times and until budget seconds have
// passed, and returns the median duration of one call.
func repeat(budget float64, fn func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || time.Since(start).Seconds() < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// writerEvents is one writer's decoded event stream.
type writerEvents struct {
	AppID   uint32
	SrcRank int32
	Events  []trace.Event
}

// decodeWriters materializes every writer's events in its own order.
func decodeWriters(cp *exp.Capture) ([]*writerEvents, int64, error) {
	decs := map[int]*trace.StreamDecoder{}
	byKey := map[int]*writerEvents{}
	var order []*writerEvents
	var n int64
	for _, p := range cp.Packs {
		h, err := trace.PeekHeader(p.Data)
		if err != nil {
			return nil, 0, err
		}
		if h.Version == trace.PackAudit {
			continue
		}
		dec := decs[p.Src]
		if dec == nil {
			dec = &trace.StreamDecoder{}
			decs[p.Src] = dec
		}
		w := byKey[p.Src]
		if w == nil {
			w = &writerEvents{AppID: h.AppID, SrcRank: h.SrcRank}
			byKey[p.Src] = w
			order = append(order, w)
		}
		c, err := dec.DecodeDispatch(p.Data, func(e *trace.Event) { w.Events = append(w.Events, *e) })
		if err != nil {
			return nil, 0, err
		}
		n += int64(c)
	}
	return order, n, nil
}

// encodeNsPerEvent times trace.NewBuilder Add/Take over every writer's
// events in the given pack format.
func encodeNsPerEvent(ws []*writerEvents, events int64, version int, budget float64) (float64, error) {
	d, err := repeat(budget, func() error {
		for _, w := range ws {
			b, err := trace.NewBuilder(version, w.AppID, w.SrcRank, exp.EventRecordSize, exp.StreamBlockSize)
			if err != nil {
				return err
			}
			for i := range w.Events {
				if b.Add(&w.Events[i]) {
					b.Reset(b.Take())
				}
			}
			b.Take()
		}
		return nil
	})
	return float64(d.Nanoseconds()) / float64(events), err
}

// boardIngest posts captured v1 packs through Dispatcher.PostRaw onto a
// fresh flat board with the benchmark's module selection, drains it, and
// returns the elapsed time together with the board's ledger: entries
// posted, worker backoffs, and the summed mismatch between the jobs each
// knowledge source ran and the jobs the posted work implies.
func boardIngest(cp *exp.Capture, order []exp.CapturedPack, workers int) (elapsed time.Duration, st blackboard.Stats, gap int64, err error) {
	bb := blackboard.New(blackboard.Config{Workers: workers})
	defer bb.Close()
	disp, err := analysis.NewDispatcher(bb)
	if err != nil {
		return 0, st, 0, err
	}
	for _, a := range cp.Apps {
		p, err := disp.AddApp(a.AppID, a.Name, a.Procs)
		if err != nil {
			return 0, st, 0, err
		}
		if _, err := p.EnableWaitState(); err != nil {
			return 0, st, 0, err
		}
		if _, err := p.EnableCallsites(); err != nil {
			return 0, st, 0, err
		}
		if _, err := p.EnableSizes(); err != nil {
			return 0, st, 0, err
		}
	}
	wantPacks := map[uint32]int64{}
	wantEvents := map[uint32]int64{}
	for _, p := range order {
		h, err := trace.PeekHeader(p.Data)
		if err != nil {
			return 0, st, 0, err
		}
		if h.Version != trace.PackAudit {
			wantPacks[h.AppID]++
			wantEvents[h.AppID] += int64(h.Count)
		}
	}
	t0 := time.Now()
	for _, p := range order {
		disp.PostRaw(p.Data)
	}
	bb.Drain()
	elapsed = time.Since(t0)
	st = bb.Stats()
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	gap = abs(int64(len(order)) - bb.KSJobs("dispatcher"))
	for _, a := range cp.Apps {
		gap += abs(wantPacks[a.AppID] - bb.KSJobs("unpacker@"+a.Name))
		for _, ks := range []string{"profiler", "topology", "density", "waitstate", "callsites", "sizes"} {
			gap += abs(wantEvents[a.AppID] - bb.KSJobs(ks+"@"+a.Name))
		}
	}
	return elapsed, st, gap + st.Dropped, nil
}

// partialOpts is the replica/partial module selection for one captured
// application.
func partialOpts(cp *exp.Capture, a exp.CaptureApp) analysis.PartialOptions {
	return analysis.PartialOptions{
		AppSize:   a.Procs,
		WaitState: cp.WaitState,
		Callsites: cp.Callsites,
		Sizes:     cp.Sizes,
		WindowNs:  cp.WindowNs,
	}
}

// decodeNsPerEvent times StreamDecoder.DecodeDispatch over the capture in
// pack order, one persistent decoder per writer, with an empty callback.
func decodeNsPerEvent(cp *exp.Capture, events int64, budget float64) (float64, error) {
	var sink int64
	d, err := repeat(budget, func() error {
		decs := map[int]*trace.StreamDecoder{}
		for _, p := range cp.Packs {
			dec := decs[p.Src]
			if dec == nil {
				dec = &trace.StreamDecoder{}
				decs[p.Src] = dec
			}
			if _, err := dec.DecodeDispatch(p.Data, func(e *trace.Event) { sink += e.TEnd }); err != nil {
				return err
			}
		}
		return nil
	})
	spinSink += uint64(sink)
	return float64(d.Nanoseconds()) / float64(events), err
}

// foldLayer times Replica.FoldFunc over every materialized event, and
// Partial.MergeReset of the replica into an accumulator, once per
// mergeEvery events (the epoch cadence of a lane). It returns the fold
// cost per event and the median cost of one MergeReset.
func foldLayer(cp *exp.Capture, ws []*writerEvents, events int64, mergeEvery int, budget float64) (foldNs float64, mergeUs float64, err error) {
	apps := map[uint32]exp.CaptureApp{}
	for _, a := range cp.Apps {
		apps[a.AppID] = a
	}
	var folds, merges []float64
	_, err = repeat(budget, func() error {
		reps := map[uint32]*analysis.Replica{}
		accs := map[uint32]*analysis.Partial{}
		var foldTime time.Duration
		for _, w := range ws {
			r := reps[w.AppID]
			if r == nil {
				a, ok := apps[w.AppID]
				if !ok {
					return fmt.Errorf("writer of unknown app %d", w.AppID)
				}
				r = analysis.NewReplica(w.AppID, partialOpts(cp, a))
				reps[w.AppID] = r
				accs[w.AppID] = analysis.NewPartial(w.AppID, partialOpts(cp, a))
			}
			fold := r.FoldFunc()
			for lo := 0; lo < len(w.Events); lo += mergeEvery {
				hi := min(lo+mergeEvery, len(w.Events))
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					fold(&w.Events[i])
				}
				t1 := time.Now()
				foldTime += t1.Sub(t0)
				if err := accs[w.AppID].MergeReset(r.Partial()); err != nil {
					return err
				}
				merges = append(merges, float64(time.Since(t1).Nanoseconds())/1e3)
			}
		}
		folds = append(folds, float64(foldTime.Nanoseconds())/float64(events))
		return nil
	})
	return median(folds), median(merges), err
}

// frameNs times wire.WriteFrame of every captured pack as a pack frame
// into memory, then wire.Reader.Next over the frames, per frame.
func frameNs(cp *exp.Capture, budget float64) (float64, error) {
	payloads := make([][]byte, len(cp.Packs))
	size := 0
	for i, p := range cp.Packs {
		payloads[i] = wire.EncodePack(uint32(p.Src), p.Data)
		size += len(payloads[i]) + 16
	}
	var buf bytes.Buffer
	buf.Grow(size)
	d, err := repeat(budget, func() error {
		buf.Reset()
		for _, p := range payloads {
			if err := wire.WriteFrame(&buf, wire.TypePack, p); err != nil {
				return err
			}
		}
		r := wire.NewReader(&buf)
		for range payloads {
			if _, err := r.Next(); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(d.Nanoseconds()) / float64(len(payloads)), err
}
