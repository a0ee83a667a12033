package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the index of the enclosing span (-1 at the top).
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
}

// durations returns the durations, in the given unit, of every closed span
// with the given name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			ds = append(ds, float64(s.EndNs-s.StartNs)/float64(unit))
		}
	}
	return ds
}

// write stores the spans as JSON lines under dir, when dir exists (the
// run script creates it); a benchmark run never writes elsewhere.
func (t *tracer) write(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
