// Package cpu implements the trace-driven timing core of the
// evaluation (Tab. III: 3 GHz, 4-wide issue, 192-entry ROB). It is an
// interval-style model rather than a full out-of-order pipeline: cache
// hits are largely hidden, main-memory loads overlap up to the
// ROB/MSHR-limited memory-level parallelism, and stores are posted.
// This is the standard fidelity level for memory-system studies — the
// quantities Compresso changes (DRAM occupancy, critical-path load
// latency, fault stalls) all flow through it.
package cpu

import (
	"compresso/internal/cache"
	"compresso/internal/memctl"
	"compresso/internal/obs"
	"compresso/internal/workload"
)

// Config holds the core's timing parameters.
type Config struct {
	IssueWidth int // non-memory instructions per cycle
	ROB        int // instruction window for miss overlap
	MLP        int // maximum outstanding memory loads (MSHRs)

	// L2 and L3 hit latencies in core cycles (L1 hits are fully
	// pipelined), and the fraction of them the out-of-order engine
	// cannot hide.
	L2Lat, L3Lat uint64
	HideFraction float64
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{
		IssueWidth:   4,
		ROB:          192,
		MLP:          10,
		L2Lat:        12,
		L3Lat:        38,
		HideFraction: 0.75,
	}
}

// Stats holds the core's execution counters.
type Stats struct {
	Instrs      uint64
	MemOps      uint64
	Cycles      uint64
	StallCycles uint64 // cycles lost to memory (loads + faults)
	LoadsL1     uint64
	LoadsL2     uint64
	LoadsL3     uint64
	LoadsMem    uint64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// Register records the counters into r under prefix (canonically
// "cpu"), plus the derived IPC gauge when the core ran.
func (s Stats) Register(r *obs.Registry, prefix string) {
	r.AddStruct(prefix, s)
	if s.Cycles > 0 {
		r.Gauge(prefix + ".ipc").Set(s.IPC())
	}
}

type outstanding struct {
	done    uint64
	atInstr uint64
}

// Core executes a workload trace against a cache hierarchy and memory
// controller. Not safe for concurrent use.
type Core struct {
	cfg   Config
	hier  *cache.Hierarchy
	ctl   memctl.Controller
	src   memctl.LineSource
	view  memctl.LineViewer // src's views, when it offers them
	now   uint64
	stats Stats

	// misses is the MLP window of outstanding memory loads, oldest
	// first. Its MLP+1 capacity is allocated once in New and never
	// outgrown: memLoad retires down to fewer than MLP before adding one.
	misses []outstanding
	instrs uint64
	// lineBuf holds a writeback's value copied from a source that
	// offers no view of it.
	lineBuf [memctl.LineBytes]byte
	// leftover fractional issue cycles, in instruction units.
	issueDebt int
	// cycleBase is the cycle of the last ResetStats: reported Cycles
	// (and hence IPC) cover only the post-reset window, matching the
	// memory-side warmup reset.
	cycleBase uint64
}

// New builds a core. src supplies line values for dirty writebacks:
// a view of the value when src is a memctl.LineViewer, else a copy.
func New(cfg Config, hier *cache.Hierarchy, ctl memctl.Controller, src memctl.LineSource) *Core {
	if cfg.IssueWidth <= 0 || cfg.MLP <= 0 {
		panic("cpu: invalid config")
	}
	view, _ := src.(memctl.LineViewer)
	return &Core{cfg: cfg, hier: hier, ctl: ctl, src: src, view: view,
		misses: make([]outstanding, 0, cfg.MLP+1)}
}

// Now returns the core's current cycle.
func (c *Core) Now() uint64 { return c.now }

// Stats returns a copy of the counters, with Cycles up to date. After
// a ResetStats, every counter — including Cycles — covers only the
// post-reset window.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.now - c.cycleBase
	return s
}

// ResetStats zeroes the execution counters at end of warmup without
// touching the core's clock, ROB window or issue state. The local time
// base moves to the current cycle so IPC is computed over the same
// post-warmup window as the controller/DRAM/cache stats (which the
// simulator resets at the same moment).
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.cycleBase = c.now
}

// Step executes one trace operation.
func (c *Core) Step(op *workload.Op) {
	// Issue the non-memory instructions.
	c.instrs += uint64(op.NonMemInstrs) + 1
	c.stats.Instrs += uint64(op.NonMemInstrs) + 1
	c.stats.MemOps++
	c.issueDebt += op.NonMemInstrs + 1
	c.now += uint64(c.issueDebt / c.cfg.IssueWidth)
	c.issueDebt %= c.cfg.IssueWidth

	level := c.hier.Access(op.LineAddr, op.Write)

	// Route the generated memory traffic through the controller.
	var fillDone uint64
	for _, ev := range c.hier.Events {
		if ev.Write {
			res := c.ctl.WriteLine(c.now, ev.LineAddr, c.writeback(ev.LineAddr))
			// Posted writes do not stall; an OS page fault (LCP's
			// overflow handling) does.
			if res.Done > c.now {
				c.stats.StallCycles += res.Done - c.now
				c.now = res.Done
			}
			continue
		}
		res := c.ctl.ReadLine(c.now, ev.LineAddr)
		if ev.LineAddr == op.LineAddr {
			fillDone = res.Done
		}
	}

	if op.Write {
		// Stores retire through the write buffer; charge nothing
		// beyond the traffic already issued.
		return
	}

	switch level {
	case 1:
		c.stats.LoadsL1++
		// L1 hits are fully pipelined.
	case 2:
		c.stats.LoadsL2++
		c.stall(uint64(float64(c.cfg.L2Lat) * (1 - c.cfg.HideFraction)))
	case 3:
		c.stats.LoadsL3++
		c.stall(uint64(float64(c.cfg.L3Lat) * (1 - c.cfg.HideFraction)))
	default:
		c.stats.LoadsMem++
		c.memLoad(fillDone)
	}
}

// writeback returns the value a dirty writeback of lineAddr carries.
func (c *Core) writeback(lineAddr uint64) []byte {
	if c.view != nil {
		return c.view.Line(lineAddr)
	}
	c.src.ReadLine(lineAddr, c.lineBuf[:])
	return c.lineBuf[:]
}

func (c *Core) stall(cycles uint64) {
	c.stats.StallCycles += cycles
	c.now += cycles
}

// memLoad models ROB/MSHR-limited overlap of main-memory loads: a miss
// joins the outstanding window; the core only stalls when the window's
// capacity (MLP) or reach (ROB instructions) is exceeded, or — at
// retirement pressure — for the unhidable tail of the oldest miss.
func (c *Core) memLoad(done uint64) {
	// Retire outstanding misses that are complete or out of ROB reach.
	for len(c.misses) > 0 {
		head := c.misses[0]
		if head.done <= c.now {
			c.retireOldest()
			continue
		}
		if c.instrs-head.atInstr > uint64(c.cfg.ROB) || len(c.misses) >= c.cfg.MLP {
			// The window is exhausted: wait for the oldest miss.
			c.stall(head.done - c.now)
			c.retireOldest()
			continue
		}
		break
	}
	if done > c.now {
		c.misses = append(c.misses, outstanding{done: done, atInstr: c.instrs})
	}
}

// retireOldest drops the window's head, shifting the rest down in
// place (at most MLP entries) so the window never reallocates.
func (c *Core) retireOldest() {
	c.misses = c.misses[:copy(c.misses, c.misses[1:])]
}

// Drain retires all outstanding misses (end of simulation).
func (c *Core) Drain() {
	for _, m := range c.misses {
		if m.done > c.now {
			c.stall(m.done - c.now)
		}
	}
	c.misses = c.misses[:0]
}
