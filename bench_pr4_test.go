package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/trace"
)

type codecPoint struct {
	RecordSize      int     `json:"record_size"`
	Events          int     `json:"events"`
	V1Bytes         int64   `json:"v1_bytes"`
	V3Bytes         int64   `json:"v3_bytes"`
	V1BytesPerEvent float64 `json:"v1_bytes_per_event"`
	V3BytesPerEvent float64 `json:"v3_bytes_per_event"`
	ReductionPct    float64 `json:"reduction_pct"`
	EncodeNsPerEv   float64 `json:"encode_ns_per_event"`
	DecodeNsPerEv   float64 `json:"decode_ns_per_event"`
}

type packedPoint struct {
	PackVersion  int     `json:"pack_version"`
	Writers      int     `json:"writers"`
	Ratio        int     `json:"ratio"`
	WireBytes    int64   `json:"wire_bytes"`
	LogicalBytes int64   `json:"logical_bytes"`
	Events       int64   `json:"events"`
	GBPerSec     float64 `json:"gb_per_s"`
	EventsPerSec float64 `json:"events_per_s"`
	Compression  float64 `json:"compression_ratio"`
}

type benchRecordPR4 struct {
	Benchmark string        `json:"benchmark"`
	Workload  string        `json:"workload"`
	GoVersion string        `json:"go_version"`
	Codec     []codecPoint  `json:"codec"`
	Streamed  []packedPoint `json:"streamed"`
}

// encodeFig14 runs n Fig14 events through a pack codec with blockSize
// capacity, returning total encoded bytes and encode+decode wall time.
// Every pack is decoded, in stream order through one StreamDecoder (v3
// packs carry the per-writer dictionary), and counted against the input.
func encodeFig14(t *testing.T, version, recordSize, n int) (bytes int64, encNs, decNs int64) {
	t.Helper()
	b, err := trace.NewBuilder(version, 1, 0, recordSize, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var packs [][]byte
	start := time.Now()
	for i := 0; i < n; i++ {
		ev := exp.Fig14Event(i, 0)
		if b.Add(&ev) {
			packs = append(packs, b.Take())
		}
	}
	if p := b.Take(); p != nil {
		packs = append(packs, p)
	}
	encNs = time.Since(start).Nanoseconds()
	var d trace.StreamDecoder
	decoded := 0
	start = time.Now()
	for _, p := range packs {
		bytes += int64(len(p))
		if err := d.Init(p); err != nil {
			t.Fatal(err)
		}
		for d.Next() {
			decoded++
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
	}
	decNs = time.Since(start).Nanoseconds()
	if decoded != n {
		t.Fatalf("v%d decoded %d of %d events", version, decoded, n)
	}
	return bytes, encNs, decNs
}

// TestRecordPackV3Bench is the compact codec's acceptance gate and bench
// recorder. It always asserts the headline bound — the v3 codec cuts
// bytes per event by at least 35 % vs the embedded v1 measurement on the
// Fig14 workload, for both the raw 48-byte record and the paper's padded
// 256-byte record — and that the streaming decode paths stay
// allocation-free. With RECORD_BENCH set it additionally
// writes results/BENCH_PR4.json (the CI bench job's recorder); without
// it, short mode skips.
func TestRecordPackV3Bench(t *testing.T) {
	record := os.Getenv("RECORD_BENCH") != ""
	if !record && testing.Short() {
		t.Skip("short mode and RECORD_BENCH unset")
	}
	rec := benchRecordPR4{
		Benchmark: "TestRecordPackV3Bench",
		Workload:  "deterministic Fig14 event stream (exp.Fig14Event), 200k events/point",
		GoVersion: runtime.Version(),
	}
	const n = 200_000
	for _, recordSize := range []int{trace.MinRecordSize, exp.EventRecordSize} {
		v1Bytes, _, _ := encodeFig14(t, trace.PackV1, recordSize, n)
		v3Bytes, encNs, decNs := encodeFig14(t, trace.PackV3, recordSize, n)
		cp := codecPoint{
			RecordSize:      recordSize,
			Events:          n,
			V1Bytes:         v1Bytes,
			V3Bytes:         v3Bytes,
			V1BytesPerEvent: float64(v1Bytes) / n,
			V3BytesPerEvent: float64(v3Bytes) / n,
			ReductionPct:    100 * (1 - float64(v3Bytes)/float64(v1Bytes)),
			EncodeNsPerEv:   float64(encNs) / n,
			DecodeNsPerEv:   float64(decNs) / n,
		}
		// The enforced minimum is 35 %; the measured reduction on this
		// workload is far higher (the margin absorbs codec tuning).
		if cp.ReductionPct < 35 {
			t.Errorf("recordSize=%d: v3 %.1f B/event vs v1 %.1f B/event — %.1f%% reduction, want >= 35%%",
				recordSize, cp.V3BytesPerEvent, cp.V1BytesPerEvent, cp.ReductionPct)
		}
		rec.Codec = append(rec.Codec, cp)
	}

	// Zero allocations per decoded event on the hot loops (the decoder
	// guards also run in internal/trace; asserting here keeps the
	// acceptance criteria in one test).
	packs := make([][]byte, 2)
	for pi, version := range []int{trace.PackV1, trace.PackV3} {
		b, err := trace.NewBuilder(version, 1, 0, trace.MinRecordSize, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			ev := exp.Fig14Event(i, 0)
			if b.Add(&ev) {
				break
			}
		}
		packs[pi] = b.Take()
	}
	var r trace.PackReader
	var d trace.StreamDecoder
	var sum int64
	fold := func(e *trace.Event) { sum += e.Size }
	if _, err := d.DecodeDispatch(packs[1], fold); err != nil { // warm the dictionary
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.Init(packs[0]); err != nil {
			t.Error(err)
			return
		}
		for r.Next() {
			fold(r.Event())
		}
		if _, err := d.DecodeDispatch(packs[1], fold); err != nil {
			t.Error(err)
		}
	})
	_ = sum
	if allocs != 0 {
		t.Errorf("v1/v3 decode loops allocated %.1f objects per run, want 0", allocs)
	}

	// End-to-end: the same workload through the VMPI coupling, v1 vs v3,
	// so the reduction shows up as wire volume and event rate.
	for _, version := range []int{trace.PackV1, trace.PackV3} {
		pt, err := exp.StreamThroughputPacked(exp.Tera100(), 64, 4, 4<<20, 1<<20, exp.EventRecordSize, version)
		if err != nil {
			t.Fatalf("packed stream v%d: %v", version, err)
		}
		rec.Streamed = append(rec.Streamed, packedPoint{
			PackVersion:  version,
			Writers:      pt.Writers,
			Ratio:        pt.Ratio,
			WireBytes:    pt.WireBytes,
			LogicalBytes: pt.LogicalBytes,
			Events:       pt.Events,
			GBPerSec:     pt.Throughput / 1e9,
			EventsPerSec: pt.EventRate,
			Compression:  pt.CompressionRatio(),
		})
	}
	v1, v3 := rec.Streamed[0], rec.Streamed[1]
	if v3.WireBytes >= v1.WireBytes {
		t.Errorf("streamed v3 wire volume %d not below v1's %d", v3.WireBytes, v1.WireBytes)
	}
	if 100*(1-float64(v3.WireBytes)/float64(v3.LogicalBytes)) < 35 {
		t.Errorf("streamed v3 reduction %.1f%% below the 35%% bound",
			100*(1-float64(v3.WireBytes)/float64(v3.LogicalBytes)))
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
	if err := os.WriteFile("results/BENCH_PR4.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote results/BENCH_PR4.json (%d codec points, %d streamed points)", len(rec.Codec), len(rec.Streamed))
}
