package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAlloc returns the cumulative heap bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// meter measures one pass: wall time, process CPU time and heap bytes
// allocated between start and stop.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// startMeter first collects the garbage earlier work left behind, so that
// every pass starts from the same heap state, then starts measuring.
func startMeter() meter {
	runtime.GC()
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: totalAlloc()}
}

// pass is one measured unit of work of a timed region.
type pass struct {
	Wall   time.Duration
	CPU    time.Duration
	Alloc  uint64
	Events int64
}

func (m meter) stop(events int64) pass {
	return pass{Wall: time.Since(m.wall), CPU: cpuTime() - m.cpu, Alloc: totalAlloc() - m.alloc, Events: events}
}

// passStats reduces a timed region's passes to per-pass medians, so one
// pass disturbed by the host moves no reported figure.
type passStats struct {
	EventsPerS, CPUNsPerEvent, AllocBPerEvent float64
	WallMs                                    []float64
}

func summarize(ps []pass) passStats {
	var rate, cpu, alloc, wall []float64
	for _, p := range ps {
		if p.Events == 0 {
			continue
		}
		ev := float64(p.Events)
		rate = append(rate, ev/p.Wall.Seconds())
		cpu = append(cpu, float64(p.CPU.Nanoseconds())/ev)
		alloc = append(alloc, float64(p.Alloc)/ev)
		wall = append(wall, float64(p.Wall.Nanoseconds())/1e6)
	}
	return passStats{EventsPerS: median(rate), CPUNsPerEvent: median(cpu), AllocBPerEvent: median(alloc), WallMs: wall}
}

// spinSink keeps the spin kernel's result live.
var spinSink uint64

// hostRefMs times a fixed integer kernel (three runs, median). The kernel
// never changes, so a run whose host.ref_ms is high ran on a slow or
// contended host, whatever the code under test did.
func hostRefMs() float64 {
	var ms []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// interleave returns the captured packs in a seed-chosen cross-writer
// interleaving that keeps every writer's own pack order: at each step a
// writer is drawn with probability proportional to its remaining packs.
// The analyzer's results may not depend on the interleaving, only on each
// writer's order (the v3 stream dictionary needs that order).
func interleave(packs []exp.CapturedPack, seed int64) []exp.CapturedPack {
	bySrc := map[int][]exp.CapturedPack{}
	var srcs []int
	for _, p := range packs {
		if _, ok := bySrc[p.Src]; !ok {
			srcs = append(srcs, p.Src)
		}
		bySrc[p.Src] = append(bySrc[p.Src], p)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]exp.CapturedPack, 0, len(packs))
	for left := len(packs); left > 0; left-- {
		k := rng.Intn(left)
		for i, s := range srcs {
			q := bySrc[s]
			if k >= len(q) {
				k -= len(q)
				continue
			}
			out = append(out, q[0])
			bySrc[s] = q[1:]
			if len(q) == 1 {
				srcs = append(srcs[:i], srcs[i+1:]...)
			}
			break
		}
	}
	return out
}

// gcWatch samples the runtime's GC counters and the live heap while a
// traced run executes.
type gcWatch struct {
	stop   chan struct{}
	done   sync.WaitGroup
	peak   uint64
	gc0    uint32
	pause0 uint64
}

func watchGC() *gcWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &gcWatch{stop: make(chan struct{}), gc0: ms.NumGC, pause0: ms.PauseTotalNs, peak: ms.HeapAlloc}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > w.peak {
					w.peak = v
				}
			}
		}
	}()
	return w
}

// finish stops the sampler and returns (GC cycles, total GC pause ms,
// peak live heap MB) over the watched interval.
func (w *gcWatch) finish() (float64, float64, float64) {
	close(w.stop)
	w.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.NumGC - w.gc0), float64(ms.PauseTotalNs-w.pause0) / 1e6, float64(w.peak) / (1 << 20)
}
