// Command streambench regenerates the paper's Figure 14: global VMPI
// stream throughput between a writer and a reader partition, swept over
// writer counts and writer/reader ratios, with the prorated filesystem
// bandwidth as the comparison column.
//
// The paper's headline configuration (2560 writers + 2560 readers, 1 GB
// per writer, 1 MB blocks) is reproduced with:
//
//	streambench -writers 2560 -ratios 1 -bytes 1G
//
// The default sweep is smaller so it completes in seconds.
//
// With -tree, the command instead measures the multi-level reduction
// tree: the named applications are profiled through the flat pipeline
// and through each requested tree topology, and the table compares every
// topology's root-blackboard ingest volume against the flat baseline:
//
//	streambench -tree LU.C@64,CG.C@64 -tree-levels 2,3 -tree-fanin 8
//
// With -overload, the command runs the adaptive-engine overload
// experiment: the named applications are profiled unloaded, then with the
// analyzer partition throttled to -overload-rate bytes/second — once with
// the static engine (back-pressure only) and once with the closed-loop
// controller shedding load under a quantified completeness bound:
//
//	streambench -overload LU.A@16 -overload-rate 200k
//
// With -windowlag, the command runs the windowed-analysis latency sweep:
// a deterministic virtual-clock model pushes events through steady,
// burst and recovery phases, folding them into per-window partial
// profiles, and prints the event-to-report-update lag per phase with a
// catch-up SLO verdict:
//
//	streambench -windowlag -windowlag-slo 100us
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/adapt"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/nas"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambench: ")
	var (
		writersFlag  = flag.String("writers", "32,128,512,2560", "comma-separated writer counts")
		ratiosFlag   = flag.String("ratios", "1,2,4,8,16,32,64", "comma-separated writer/reader ratios")
		bytesFlag    = flag.String("bytes", "64M", "bytes streamed per writer (e.g. 64M, 1G)")
		blockFlag    = flag.String("block", "1M", "stream block size")
		platformFlag = flag.String("platform", "tera100", "platform model (tera100 or curie)")
		jFlag        = flag.Int("j", 0, "parallel sweep workers (0 = all cores, 1 = serial); output is identical for any value")
		telFlag      = flag.Bool("telemetry", false, "re-run the best 1:1 point with engine telemetry and print a JSON health summary")
		formatFlag   = flag.Int("format", 0, "pack wire format: 1 (size-only fixed-record blocks, the seed behavior) or 3 (real packs in the compact stream-dictionary format); 0 = 1")
		rawFlag      = flag.Bool("rawspeed", false, "single-node raw analysis speed: the v1 board-path baseline engine vs the v3 fused engine, at host speed")
		rawWriters   = flag.Int("raw-writers", 8, "writer streams in -rawspeed mode")
		rawEvents    = flag.Int("raw-events", 200000, "events per writer in -rawspeed mode")
		rawCores     = flag.String("cores", "", "comma-separated worker counts (e.g. 1,2,4,8): sweep the v3 fused engine's replica scaling in -rawspeed mode instead of the v1-vs-v3 comparison")
		cpuProfile   = flag.String("cpuprofile", "", "write a host-side CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a host-side heap profile to this file at exit")
		treeFlag     = flag.String("tree", "", "reduction-tree ingest sweep over these applications (NAME.CLASS@PROCS[,...]) instead of the Figure 14 stream sweep")
		treeLevels   = flag.String("tree-levels", "2,3", "comma-separated tree level counts for -tree (each >= 2)")
		treeFanin    = flag.Int("tree-fanin", 0, "reduction-tree fan-in for -tree (0 = 8)")
		treeFlush    = flag.Int("tree-flush", 4, "ship partial-profile deltas every N packs in -tree mode (0 = only at stream end)")
		treeIters    = flag.Int("tree-iters", 2, "timesteps per -tree application (0 = official counts)")
		overloadFlag = flag.String("overload", "", "adaptive overload sweep over these applications (NAME.CLASS@PROCS[,...]) instead of the Figure 14 stream sweep")
		overloadRate = flag.String("overload-rate", "200k", "throttled analyzer ingest rate in bytes/second for -overload")
		overloadIter = flag.Int("overload-iters", 40, "timesteps per -overload application (0 = official counts)")
		lagFlag      = flag.Bool("windowlag", false, "windowed-analysis latency sweep: virtual-clock burst/catch-up model with per-phase lag and an SLO verdict")
		lagWindow    = flag.Duration("windowlag-window", time.Millisecond, "window length for -windowlag")
		lagSlide     = flag.Duration("windowlag-slide", 0, "window slide for -windowlag (0 = tumbling)")
		lagCost      = flag.Duration("windowlag-cost", time.Microsecond, "modeled analyzer cost per event for -windowlag")
		lagSLO       = flag.Duration("windowlag-slo", 100*time.Microsecond, "end-of-run lag objective for -windowlag")
	)
	flag.Parse()

	var modes []string
	if *rawFlag {
		modes = append(modes, "-rawspeed")
	}
	if *treeFlag != "" {
		modes = append(modes, "-tree")
	}
	if *overloadFlag != "" {
		modes = append(modes, "-overload")
	}
	if *lagFlag {
		modes = append(modes, "-windowlag")
	}
	if err := cliutil.ExclusiveModes(modes...); err != nil {
		fatalUsage(err)
	}
	writers, err := cliutil.ParseInts(*writersFlag)
	if err != nil {
		fatalUsage(err)
	}
	ratios, err := cliutil.ParseInts(*ratiosFlag)
	if err != nil {
		fatalUsage(err)
	}
	perWriter, err := cliutil.ParseBytes(*bytesFlag)
	if err != nil {
		fatalUsage(err)
	}
	block, err := cliutil.ParseBytes(*blockFlag)
	if err != nil {
		fatalUsage(err)
	}
	platform, err := cliutil.PlatformByName(*platformFlag)
	if err != nil {
		fatalUsage(err)
	}
	format, err := cliutil.ResolvePackFormat(*formatFlag)
	if err != nil {
		fatalUsage(err)
	}

	// Host-side profiles cover whatever mode runs below (the simulator and
	// the analysis engine both execute on this process).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *rawFlag {
		if *rawCores != "" {
			cores, err := cliutil.ParseInts(*rawCores)
			if err != nil {
				fatalUsage(err)
			}
			runRawScaling(*rawWriters, *rawEvents, cores)
		} else {
			runRawSpeed(*rawWriters, *rawEvents)
		}
		return
	}
	if *rawCores != "" {
		fatalUsage(fmt.Errorf("-cores only applies to -rawspeed mode"))
	}
	if *treeFlag != "" {
		runTreeSweep(platform, *treeFlag, *treeLevels, *treeFanin, *treeFlush, *treeIters, format)
		return
	}
	if *overloadFlag != "" {
		runOverloadSweep(platform, *overloadFlag, *overloadRate, *overloadIter)
		return
	}
	if *lagFlag {
		runWindowLag(lagWindow.Nanoseconds(), lagSlide.Nanoseconds(), lagCost.Nanoseconds(), lagSLO.Nanoseconds())
		return
	}

	start := time.Now()
	var points []exp.StreamPoint
	if format > trace.PackV1 {
		// Packed mode: writers encode the deterministic Fig14 workload
		// through the selected codec and readers decode every block, so the
		// compression shows up in the simulated GB/s. The stdout table keeps
		// the Figure 14 format; wire volume and ratio go to stderr.
		type gridPoint struct{ writers, ratio int }
		var grid []gridPoint
		for _, nw := range writers {
			for _, ratio := range ratios {
				if ratio <= nw {
					grid = append(grid, gridPoint{nw, ratio})
				}
			}
		}
		packed, err := runner.Run(len(grid), *jFlag, func(i int) (exp.PackedStreamPoint, error) {
			g := grid[i]
			return exp.StreamThroughputPacked(platform, g.writers, g.ratio, perWriter, block, exp.EventRecordSize, format)
		})
		if err != nil {
			log.Fatal(err)
		}
		var wire, logical, events int64
		for _, pt := range packed {
			points = append(points, pt.StreamPoint)
			wire += pt.WireBytes
			logical += pt.LogicalBytes
			events += pt.Events
		}
		if wire > 0 {
			fmt.Fprintf(os.Stderr, "streambench: pack v%d: %d events, %d bytes on wire (logical %d), compression %.2fx (%.1f%% reduction)\n",
				format, events, wire, logical, float64(logical)/float64(wire), 100*(1-float64(wire)/float64(logical)))
		}
	} else {
		points, err = exp.StreamSweepJ(platform, writers, ratios, perWriter, block, *jFlag)
		if err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	exp.WriteStreamTable(os.Stdout, points)
	// Engine wall-clock (host time, not simulated time) on stderr so the
	// table on stdout stays byte-comparable across -j values.
	fmt.Fprintf(os.Stderr, "streambench: %d points in %.2fs (%.2f points/sec)\n",
		len(points), elapsed.Seconds(), float64(len(points))/elapsed.Seconds())

	// Headline check mirroring the paper's text: best ratio-1 point vs the
	// prorated filesystem bandwidth.
	var best exp.StreamPoint
	for _, pt := range points {
		if pt.Ratio == 1 && pt.Throughput > best.Throughput {
			best = pt
		}
	}
	if best.Writers > 0 {
		fmt.Printf("\nbest 1:1 point: %d writers + %d readers -> %.1f GB/s (prorated FS: %.1f GB/s)\n",
			best.Writers, best.Readers, best.Throughput/1e9, best.FSShare/1e9)
	}

	if *telFlag && best.Writers > 0 {
		_, sum, err := exp.StreamThroughputTelemetry(platform, best.Writers, best.Ratio, perWriter, block)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	}
}

// fatalUsage exits non-zero on a bad flag or flag combination, with a
// one-line pointer at the flag help.
func fatalUsage(err error) {
	log.Fatalf("%v (run with -h for usage)", err)
}

// runTreeSweep is the -tree mode: profile real applications through flat
// and tree topologies at equal event volume and print each tree's
// root-ingest reduction against the flat baseline. All analysis modules
// are on so the partial profiles carry their full table set.
func runTreeSweep(platform exp.Platform, apps, levels string, fanin, flush, iters, format int) {
	specs, err := cliutil.ParseApps(apps)
	if err != nil {
		log.Fatal(err)
	}
	workloads := make([]*nas.Workload, 0, len(specs))
	for _, spec := range specs {
		procs := nas.ValidProcs(spec.Kind, spec.Procs)
		w, err := nas.ByName(spec.Kind, nas.Class(spec.Class), procs, iters)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, w)
	}
	lv, err := cliutil.ParseInts(levels)
	if err != nil {
		log.Fatal(err)
	}
	var configs []exp.TreeConfig
	for _, l := range lv {
		if l < 2 {
			log.Fatalf("-tree-levels %d: a tree needs at least 2 levels", l)
		}
		configs = append(configs, exp.TreeConfig{Levels: l, Fanin: fanin, FlushPacks: flush})
	}
	base := exp.ProfileOptions{
		WaitState:        true,
		TemporalWindowNs: (10 * time.Millisecond).Nanoseconds(),
		Callsites:        true,
		Sizes:            true,
		PackVersion:      format,
	}
	start := time.Now()
	points, err := exp.TreeScalingSweep(platform, workloads, base, configs)
	if err != nil {
		log.Fatal(err)
	}
	exp.WriteTreeTable(os.Stdout, points)
	fmt.Fprintf(os.Stderr, "streambench: %d topologies in %.2fs\n", len(points), time.Since(start).Seconds())
}

// runOverloadSweep is the -overload mode: the same workloads profiled
// unloaded, statically overloaded, and adaptively overloaded, with the
// final adaptive report's loss accounting printed after the table.
func runOverloadSweep(platform exp.Platform, apps, rate string, iters int) {
	specs, err := cliutil.ParseApps(apps)
	if err != nil {
		log.Fatal(err)
	}
	workloads := make([]*nas.Workload, 0, len(specs))
	for _, spec := range specs {
		procs := nas.ValidProcs(spec.Kind, spec.Procs)
		w, err := nas.ByName(spec.Kind, nas.Class(spec.Class), procs, iters)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, w)
	}
	slowRate, err := cliutil.ParseBytes(rate)
	if err != nil {
		log.Fatal(err)
	}
	base := exp.ProfileOptions{
		Workers:         2,
		PackBytes:       8192,
		TelemetryPeriod: 50 * time.Millisecond,
		AdaptiveConfig:  adapt.Config{BacklogHighBytes: 64 << 10},
	}
	start := time.Now()
	points, err := exp.OverloadSweep(platform, workloads, base, float64(slowRate))
	if err != nil {
		log.Fatal(err)
	}
	exp.WriteOverloadTable(os.Stdout, points)
	adaptive := points[len(points)-1]
	if rep := adaptive.Report; rep != nil && len(rep.StreamLoss) > 0 {
		fmt.Println()
		for _, row := range rep.StreamLoss {
			fmt.Printf("%s rank %d: %d blocks dropped, %d lost in flight, %d events shed\n",
				row.App, row.Rank, row.Dropped, row.LostInFlight, row.Shed)
		}
	}
	fmt.Fprintf(os.Stderr, "streambench: overload sweep in %.2fs\n", time.Since(start).Seconds())
}

// runWindowLag is the -windowlag mode: the deterministic burst/catch-up
// latency model over tumbling (or sliding) windows, printed as a
// per-phase push-rate vs lag table with the SLO verdict last. The whole
// sweep runs on virtual clocks, so the table is bit-identical across
// hosts and runs.
func runWindowLag(windowNs, slideNs, costNs, sloNs int64) {
	cfg := exp.DefaultWindowLagConfig()
	cfg.WindowNs = windowNs
	cfg.SlideNs = slideNs
	cfg.CostNs = costNs
	cfg.SLONs = sloNs
	res, err := exp.WindowLagSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase      events    push/s       gap     end lag    peak lag      late\n")
	for _, pt := range res.Points {
		fmt.Printf("%-8s  %7d  %8.0f  %8s  %10s  %10s  %8d\n",
			pt.Phase, pt.Events, pt.PushPerSec, time.Duration(pt.GapNs),
			time.Duration(pt.EndLagNs), time.Duration(pt.PeakLagNs), pt.LateEvents)
	}
	fmt.Printf("\n%d windows of %s, max lag %s, final lag %s, %d late events, completeness >= %.2f%%\n",
		res.Windows, time.Duration(cfg.WindowNs), time.Duration(res.MaxLagNs),
		time.Duration(res.FinalLagNs), res.LateEvents, 100*res.MinCompleteness)
	verdict := "MET"
	if !res.SLOMet {
		verdict = "MISSED"
	}
	fmt.Printf("SLO %s: %s (final lag %s)\n", time.Duration(res.SLONs), verdict, time.Duration(res.FinalLagNs))
}

// runRawSpeed is the -rawspeed mode: both engines analyze the identical
// pre-encoded Fig14 workload at host speed — the PR7 acceptance
// measurement, and the workload to point -cpuprofile at when hunting the
// next bottleneck.
func runRawSpeed(writers, events int) {
	base, err := exp.RawAnalysisSpeed(exp.RawSpeedConfig{
		Writers: writers, EventsPerWriter: events,
		PackVersion: trace.PackV1, Fused: false,
	})
	if err != nil {
		log.Fatal(err)
	}
	nu, err := exp.RawAnalysisSpeed(exp.RawSpeedConfig{
		Writers: writers, EventsPerWriter: events,
		PackVersion: trace.PackV3, Fused: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine                          events    wire bytes   seconds      events/s\n")
	for _, pt := range []struct {
		name string
		p    exp.RawSpeedPoint
	}{{"v1 + board path", base}, {"v3 + fused ingest", nu}} {
		fmt.Printf("%-28s %9d  %12d  %8.3f  %12.0f\n",
			pt.name, pt.p.Events, pt.p.WireBytes, pt.p.Seconds, pt.p.EventsPerSec)
	}
	fmt.Printf("\nspeedup: %.2fx analyzed events/s\n", nu.EventsPerSec/base.EventsPerSec)
}

// runRawScaling is -rawspeed -cores: the v3 fused engine at each worker
// count, workers and replicas scaling together — the parallel-analysis
// acceptance sweep. Speedups are against the 1-worker (serial, replica-free) run
// when the sweep includes it, else against the smallest count measured.
func runRawScaling(writers, events int, cores []int) {
	points, err := exp.RawSpeedScaling(writers, events, cores)
	if err != nil {
		log.Fatal(err)
	}
	base := points[0].EventsPerSec
	fmt.Printf("workers  replicas    events   seconds      events/s   speedup  epoch merges\n")
	for _, pt := range points {
		fmt.Printf("%7d  %8d  %8d  %8.3f  %12.0f  %7.2fx  %12d\n",
			pt.Workers, pt.Replicas, pt.Events, pt.Seconds, pt.EventsPerSec,
			pt.EventsPerSec/base, pt.EpochMerges)
	}
	fmt.Fprintf(os.Stderr, "streambench: rawspeed scaling on a %d-core host\n", runtime.NumCPU())
}
