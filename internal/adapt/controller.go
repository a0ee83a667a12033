package adapt

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blackboard"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// WindowSetter is the slice of vmpi.Stream the controller actuates: a
// goroutine-safe request to retarget the writer's credit window.
type WindowSetter interface {
	RequestWindow(na int)
}

// Config tunes the controller's thresholds. The zero value selects the
// defaults noted on each field.
type Config struct {
	// StallDelta is the per-snapshot increase of stream.write_stalls that
	// counts as overload (default 1: any new back-pressure stall).
	StallDelta int64
	// PanicStalls is the per-snapshot stall increase that jumps straight
	// to the maximum level instead of stepping (default 32).
	PanicStalls int64
	// BacklogHighNs is the NIC backlog gauge level treated as overload on
	// its own, stalls or not (default 50ms of virtual time).
	BacklogHighNs int64
	// BacklogHighBytes is the stream byte backlog — bytes_written minus
	// bytes_read across every instrumented stream, i.e. the volume queued
	// between the recorders and the analyzers — treated as overload
	// (default 256 KiB). Relaxing requires the backlog to drain below
	// half this level, so the controller holds its level while the
	// analyzers chew through queued packs instead of oscillating.
	BacklogHighBytes int64
	// CalmSnapshots is how many consecutive calm snapshots must pass
	// before the controller relaxes one level (default 2).
	CalmSnapshots int
	// BaseWindow is the credit window restored at level 0 (default 3, the
	// paper's NA).
	BaseWindow int
	// MaxWindow is the credit window requested under overload (default 8).
	MaxWindow int
	// BaseFlushPacks is the tree partial-flush cadence at level 0
	// (default 0: leave the tree's static cadence untouched at level 0).
	BaseFlushPacks int32
	// MaxLevel caps escalation (default 4, the full ladder).
	MaxLevel int
}

func (c *Config) defaults() {
	if c.StallDelta <= 0 {
		c.StallDelta = 1
	}
	if c.PanicStalls <= 0 {
		c.PanicStalls = 32
	}
	if c.BacklogHighNs <= 0 {
		c.BacklogHighNs = int64(50 * time.Millisecond)
	}
	if c.BacklogHighBytes <= 0 {
		c.BacklogHighBytes = 256 << 10
	}
	if c.CalmSnapshots <= 0 {
		c.CalmSnapshots = 2
	}
	if c.BaseWindow <= 0 {
		c.BaseWindow = 3
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 8
	}
	if c.MaxLevel <= 0 || c.MaxLevel > maxLevel {
		c.MaxLevel = maxLevel
	}
}

// maxLevel is the top of the escalation ladder.
const maxLevel = 4

// classPlan is one level's gate programming.
type classPlan struct {
	async int32 // Isend/Irecv/Wait/Waitall/Iprobe: bookkeeping, shed first
	p2p   int32 // Send/Recv/Sendrecv: the measurements themselves
	posix int32 // POSIX I/O events
}

// ladder is the escalation policy, indexed by level. Collectives and
// Init/Finalize are never shed: they are rare, and they anchor the
// profile's structure (phase boundaries, barrier wait analysis).
//
//	L0  nominal: admit everything, static transport.
//	L1  transport only: wider credit window, compact v3 packs, coarser
//	    tree flush cadence — no measurement loss yet.
//	L2  sample async bookkeeping 1-in-8.
//	L3  async 1-in-64, point-to-point and POSIX 1-in-8.
//	L4  drop async entirely, point-to-point and POSIX 1-in-64.
var ladder = [maxLevel + 1]classPlan{
	{async: 1, p2p: 1, posix: 1},
	{async: 1, p2p: 1, posix: 1},
	{async: 8, p2p: 1, posix: 1},
	{async: 64, p2p: 8, posix: 8},
	{async: -1, p2p: 64, posix: 64},
}

// Controller is the closed-loop overload governor. It registers as a
// blackboard knowledge source sensitive to engine-health meta-events
// (the same channel-9 snapshots the engine-health chapter renders), so
// its sensor input arrives through the real analysis machinery; its
// decisions land in atomics that the instrumented ranks' hot paths read
// at their next safe point.
type Controller struct {
	cfg Config
	tel *telemetry.ControllerMetrics

	mu      sync.Mutex
	gates   []*Gate
	windows []WindowSetter
	level   int
	calm    int
	seeded  bool
	// Previous snapshot's counter values, for rate-of-change signals.
	prevStalls float64

	levelA      atomic.Int32
	decisions   atomic.Int64
	escalations atomic.Int64
	packVersion atomic.Int32
	flushEvery  atomic.Int32
	maxSeen     atomic.Int32
}

// NewController builds a controller with the given thresholds and, when
// bb is non-nil, registers its knowledge source ("adapt-controller") on
// the board. tel may be nil.
func NewController(bb *blackboard.Blackboard, cfg Config, tel *telemetry.ControllerMetrics) (*Controller, error) {
	cfg.defaults()
	c := &Controller{cfg: cfg, tel: tel}
	c.packVersion.Store(int32(trace.PackV1))
	c.flushEvery.Store(cfg.BaseFlushPacks)
	if bb != nil {
		metaT := blackboard.TypeID("", "meta")
		err := bb.Register(blackboard.KS{
			Name:          "adapt-controller",
			Sensitivities: []blackboard.Type{metaT},
			Op: func(_ *blackboard.Blackboard, in []*blackboard.Entry) {
				buf, ok := in[0].Payload.([]byte)
				if !ok {
					return
				}
				s, err := telemetry.DecodeSnapshot(buf)
				if err != nil {
					return // a truncated snapshot must not kill the loop
				}
				c.Observe(s)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// NewGate creates an admission gate governed by this controller,
// pre-programmed with the current level's plan. One gate per recorder
// keeps the shed ledgers per-rank, so audit packs merge without double
// counting.
func (c *Controller) NewGate() *Gate {
	g := NewGate()
	c.mu.Lock()
	c.gates = append(c.gates, g)
	c.program(g, ladder[c.level])
	c.mu.Unlock()
	return g
}

// AddStream registers a stream whose credit window the controller may
// retarget.
func (c *Controller) AddStream(w WindowSetter) {
	if w == nil {
		return
	}
	c.mu.Lock()
	c.windows = append(c.windows, w)
	w.RequestWindow(c.windowFor(c.level))
	c.mu.Unlock()
}

// Observe feeds one engine-health snapshot into the control loop. It is
// normally invoked by the controller's knowledge source, but tests (and
// hosts without a board) may call it directly.
func (c *Controller) Observe(s *telemetry.Snapshot) {
	if s == nil {
		return
	}
	var stalls, bytesW, bytesR, backlogNs float64
	for i := range s.Metrics {
		switch m := &s.Metrics[i]; m.Name {
		case "stream.write_stalls":
			stalls = float64(m.Value)
		case "stream.bytes_written":
			bytesW = float64(m.Value)
		case "stream.bytes_read":
			bytesR = float64(m.Value)
		case "net.nic_backlog_ns":
			backlogNs = float64(m.Max)
		}
	}
	if s.WallNs > 0 {
		c.tel.SnapshotLag(time.Now().UnixNano() - s.WallNs)
	}
	backlogBytes := int64(bytesW - bytesR)
	if backlogBytes > 0 {
		c.tel.Backlog(backlogBytes)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	dStalls := int64(stalls - c.prevStalls)
	c.prevStalls = stalls
	if !c.seeded {
		// First snapshot only seeds the counter baselines: its "delta" is
		// the absolute count since boot, not a rate.
		c.seeded = true
		c.decide(c.level)
		return
	}
	switch {
	case dStalls >= c.cfg.PanicStalls || backlogBytes >= 2*c.cfg.BacklogHighBytes:
		// A stall burst, or a queue already twice the overload line:
		// stepping one level at a time would let the backlog compound for
		// several more control periods. Jump to the top of the ladder.
		c.calm = 0
		c.decide(c.cfg.MaxLevel)
	case dStalls >= c.cfg.StallDelta ||
		backlogNs >= float64(c.cfg.BacklogHighNs) ||
		backlogBytes >= c.cfg.BacklogHighBytes:
		c.calm = 0
		c.decide(c.level + 1)
	case backlogBytes > c.cfg.BacklogHighBytes/4:
		// Hysteresis band: no new pressure, but the queue has not drained
		// deep either. Hold the level rather than relax into a fresh
		// stall — relaxing is only safe once the analyzers have real
		// headroom, not the moment they dip under the overload line.
		c.calm = 0
		c.decide(c.level)
	default:
		c.calm++
		if c.calm >= c.cfg.CalmSnapshots && c.level > 0 {
			c.calm = 0
			c.decide(c.level - 1)
		} else {
			c.decide(c.level)
		}
	}
}

// decide moves to the given level (clamped) and applies its plan to every
// actuator. Caller holds c.mu.
func (c *Controller) decide(level int) {
	if level < 0 {
		level = 0
	}
	if level > c.cfg.MaxLevel {
		level = c.cfg.MaxLevel
	}
	if level > c.level {
		c.escalations.Add(1)
		c.tel.OnEscalate()
	} else if level < c.level {
		c.tel.OnRelax()
	}
	c.level = level
	c.levelA.Store(int32(level))
	if int32(level) > c.maxSeen.Load() {
		c.maxSeen.Store(int32(level))
	}
	c.decisions.Add(1)
	c.tel.OnDecision(level)

	plan := ladder[level]
	for _, g := range c.gates {
		c.program(g, plan)
	}
	win := c.windowFor(level)
	for _, w := range c.windows {
		w.RequestWindow(win)
	}
	if level >= 1 {
		// Byte-bound overload: the compact v3 columns buy wire bytes
		// (DESIGN §13; the cases where they lose — tiny packs, high
		// entropy — do not arise here because overload implies full packs
		// of regular traffic). The recorder opens a fresh v3 builder on
		// every switch, so each switch restarts the stream dictionary.
		// Coarser flush cadence cuts the partial traffic competing with
		// data for the analyzer.
		c.packVersion.Store(int32(trace.PackV3))
		base := c.cfg.BaseFlushPacks
		if base <= 0 {
			base = 4
		}
		mult := int32(4)
		if level >= 2 {
			mult = 8
		}
		c.flushEvery.Store(base * mult)
	} else {
		c.packVersion.Store(int32(trace.PackV1))
		c.flushEvery.Store(c.cfg.BaseFlushPacks)
	}
}

func (c *Controller) windowFor(level int) int {
	if level >= 1 {
		return c.cfg.MaxWindow
	}
	return c.cfg.BaseWindow
}

// program applies a level plan to one gate.
func (c *Controller) program(g *Gate, p classPlan) {
	for _, k := range trace.Kinds() {
		switch {
		case k == trace.KindInit || k == trace.KindFinalize || k.IsCollective():
			g.SetInterval(k, 1)
		case k == trace.KindIsend || k == trace.KindIrecv || k.IsWait() || k == trace.KindProbe:
			g.SetInterval(k, p.async)
		case k.IsPosix():
			g.SetInterval(k, p.posix)
		default:
			g.SetInterval(k, p.p2p)
		}
	}
}

// Level returns the current escalation level.
func (c *Controller) Level() int { return int(c.levelA.Load()) }

// MaxLevelSeen returns the highest level the run reached.
func (c *Controller) MaxLevelSeen() int { return int(c.maxSeen.Load()) }

// Decisions returns how many control decisions have been taken.
func (c *Controller) Decisions() int64 { return c.decisions.Load() }

// Escalations returns how many decisions raised the level.
func (c *Controller) Escalations() int64 { return c.escalations.Load() }

// PackVersion returns the pack wire format the recorders should build
// next (consulted at flush boundaries, where swapping is safe).
func (c *Controller) PackVersion() int { return int(c.packVersion.Load()) }

// FlushEvery returns the tree partial-flush cadence in packs, or 0 to
// keep the tree's static cadence.
func (c *Controller) FlushEvery() int { return int(c.flushEvery.Load()) }

// TotalShed sums shed events across every gate the controller governs.
func (c *Controller) TotalShed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, g := range c.gates {
		n += g.TotalShed()
	}
	return n
}
