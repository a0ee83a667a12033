// Command perfbench is the repository's benchmark: three workloads that
// drive the profiling engine end to end through its stable entry points,
// plus a traced mode that times the public calls into each layer. See
// README.md in this directory for why each workload exists and how the
// layer metrics relate to the end-to-end ones.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload coupled-v1 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// host (CPUs, GOMAXPROCS, Go version, build revision, spin reference).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits lists the end-to-end metrics (tracing off) every workload
// reports, with their units. BENCHMARK.json declares the same set.
var e2eUnits = map[string]string{
	"events_per_s":          "ev/s",
	"cpu_ns_per_event":      "ns",
	"alloc_bytes_per_event": "B",
	"wire_bytes_per_event":  "B",
	"sim_overhead_pct":      "%",
	"latency_p50_ms":        "ms",
	"latency_p90_ms":        "ms",
	"setup_s":               "s",
}

// layerUnits lists the per-layer metrics of a traced run. A workload that
// does not exercise a layer reports that layer's metrics as 0.
var layerUnits = map[string]string{
	"sim.capture_s":                       "s",
	"trace.encode_v1_ns_per_event":        "ns",
	"trace.encode_v3_ns_per_event":        "ns",
	"blackboard.ingest_ns_per_event":      "ns",
	"blackboard.entries_per_event":        "count",
	"blackboard.backoffs":                 "count",
	"blackboard.ledger_gap":               "count",
	"report.render_ms":                    "ms",
	"report.json_ms":                      "ms",
	"trace.decode_v3_ns_per_event":        "ns",
	"analysis.fold_ns_per_event":          "ns",
	"analysis.merge_reset_us":             "us",
	"wire.frame_ns":                       "ns",
	"client.send_us_p50":                  "us",
	"client.credit_wait_share":            "ratio",
	"client.close_ms":                     "ms",
	"serviced.replica_merge_ns_per_event": "ns",
	"client.diff_rtt_ms_p50":              "ms",
	"client.apply_ms_p50":                 "ms",
	"analysis.partial_flush_us":           "us",
	"analysis.partial_decode_us":          "us",
	"analysis.partial_merge_us":           "us",
	"analysis.diff_bytes_p50":             "B",
	"analysis.windows_sealed":             "count",
	"analysis.window_fold_ns_per_event":   "ns",
	"gen.late_p50_ms":                     "ms",
	"gen.late_max_ms":                     "ms",
	"runtime.gc_cycles":                   "count",
	"runtime.gc_pause_ms":                 "ms",
	"runtime.heap_peak_mb":                "MB",
	"host.ref_ms":                         "ms",
	"trace_overhead_pct":                  "%",
}

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Size     sizes
}

// outcome collects what a workload run measured and checked.
type outcome struct {
	Attempted, Failed int64
	Problems          []string
	Metrics           map[string]float64
	Info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Info: map[string]any{}}
}

// op counts one operation against the system under test; a non-nil err
// counts it as failed.
func (o *outcome) op(err error) error {
	o.Attempted++
	if err != nil {
		o.Failed++
		o.problem("operation failed: %v", err)
	}
	return err
}

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// check records a problem unless ok holds.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problem(format, args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *outcome) error{
	"coupled-v1":    runCoupled,
	"daemon-replay": runReplay,
	"daemon-live":   runLive,
}

// run executes one benchmark run and returns its result. An error means
// the run could not be set up or measured at all.
func run(cfg config) (result, *outcome, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	out := newOutcome()
	out.Info["host.ref_ms"] = hostRefMs()
	if err := fn(cfg, out); err != nil {
		return result{}, out, err
	}
	units := e2eUnits
	if cfg.Trace {
		units = layerUnits
		out.Metrics["host.ref_ms"] = out.Info["host.ref_ms"].(float64)
	}
	res := result{
		Correct:   len(out.Problems) == 0 && out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		v, ok := out.Metrics[name]
		if !ok && !cfg.Trace {
			return result{}, out, fmt.Errorf("workload %s did not measure %s", cfg.Workload, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if res.Attempted < 1 {
		return result{}, out, fmt.Errorf("workload %s attempted no operation", cfg.Workload)
	}
	return res, out, nil
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory, hidden directories skipped: outside a git checkout it is what
// identifies the code a run measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hostInfo() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     rev,
		"source":     sourceDigest(),
	}
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: coupled-v1, daemon-replay or daemon-live")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for the cross-writer pack interleaving")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "length of the timed region in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg.Trace = traceFlag == 1
	cfg.Size = defaultSizes

	start := time.Now()
	res, out, err := run(cfg)
	if out != nil {
		for _, p := range out.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	info := hostInfo()
	for k, v := range out.Info {
		info[k] = v
	}
	info["workload"] = cfg.Workload
	info["seed"] = cfg.Seed
	info["run_s"] = time.Since(start).Seconds()
	info["maxrss_mb"] = maxRSSMB()
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, info[k])
	}
	fmt.Println("info:" + sb.String())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
