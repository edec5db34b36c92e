package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/obs"
	"compresso/internal/workload"
)

// spanEvery is the op sampling stride of the exported span trees.
const spanEvery = 4096

// layer accumulates the host time of every call into one layer.
type layer struct {
	name  string
	total time.Duration
	self  time.Duration // total minus the time of nested calls into other layers
	calls int
	durs  []int32 // per-call ns; nil unless percentiles are reported
}

// sortedDurs returns the recorded call durations in ns, sorted.
func (l *layer) sortedDurs() []float64 {
	s := make([]float64, len(l.durs))
	for i, d := range l.durs {
		s[i] = float64(d)
	}
	slices.Sort(s)
	return s
}

// ctlLayers is one controller's layer timings.
type ctlLayers struct {
	read, write, install layer
}

// frame is one open call on the ledger's stack.
type frame struct {
	start, child time.Duration
	id           int // span id, 0 when the op is not exported
}

// ledger times nested calls into the layers of one composed run. A
// layer's self time is its calls' duration minus the part covered by
// nested calls. Not safe for concurrent use.
type ledger struct {
	base  time.Time
	stack []frame

	export  bool // keep span trees of every spanEvery-th op
	sampled bool // the current op's spans are kept
	op      uint64
	pid     int
	lastID  int
	events  []obs.ChromeEvent

	next, step, readLine, sizeLine layer
	ctl                            map[string]*ctlLayers // by system

	// window is the wall time of the composed cells' install and op
	// loops, which every span above lies within.
	window time.Duration

	// Set-up: time and units (pages, lines, ops) of each asset step.
	materialize, sizeAll, record time.Duration
	pages, lines, ops            int
}

func newLedger(export bool) *ledger {
	return &ledger{
		base:     time.Now(),
		export:   export,
		next:     layer{name: "workload.next"},
		step:     layer{name: "cpu.step", durs: []int32{}},
		readLine: layer{name: "workload.read_line"},
		sizeLine: layer{name: "workload.size_line"},
		ctl:      map[string]*ctlLayers{},
	}
}

// startOp marks the start of op i; its spans are exported when sampled.
func (g *ledger) startOp(i uint64) {
	g.op = i
	g.sampled = g.export && i%spanEvery == 0
}

func (g *ledger) begin() {
	f := frame{start: time.Since(g.base)}
	if g.sampled {
		g.lastID++
		f.id = g.lastID
	}
	g.stack = append(g.stack, f)
}

func (g *ledger) end(l *layer) {
	n := len(g.stack) - 1
	f := g.stack[n]
	g.stack = g.stack[:n]
	d := time.Since(g.base) - f.start
	l.total += d
	l.self += d - f.child
	l.calls++
	if l.durs != nil {
		l.durs = append(l.durs, int32(min(d, math.MaxInt32)))
	}
	parent := 0
	if n > 0 {
		g.stack[n-1].child += d
		parent = g.stack[n-1].id
	}
	if f.id != 0 {
		g.events = append(g.events, obs.ChromeEvent{
			Name: l.name, Cat: "layer", Phase: "X", Pid: g.pid,
			TsUs: float64(f.start.Nanoseconds()) / 1e3, DurUs: float64(d.Nanoseconds()) / 1e3,
			Args: map[string]any{"op": g.op, "span": f.id, "parent": parent},
		})
	}
}

// controller wraps a system's controller so every call into it is timed.
func (g *ledger) controller(system string, ctl memctl.Controller) *timedController {
	l := &ctlLayers{
		read:    layer{name: "memctl.read", durs: []int32{}},
		write:   layer{name: "memctl.write"},
		install: layer{name: "memctl.install"},
	}
	g.ctl[system] = l
	return &timedController{Controller: ctl, g: g, l: l}
}

// timedController times the demand and install calls into a controller.
type timedController struct {
	memctl.Controller
	g *ledger
	l *ctlLayers
}

func (c *timedController) ReadLine(now, lineAddr uint64) memctl.Result {
	c.g.begin()
	r := c.Controller.ReadLine(now, lineAddr)
	c.g.end(&c.l.read)
	return r
}

func (c *timedController) WriteLine(now, lineAddr uint64, data []byte) memctl.Result {
	c.g.begin()
	r := c.Controller.WriteLine(now, lineAddr, data)
	c.g.end(&c.l.write)
	return r
}

func (c *timedController) InstallPage(page uint64, lines [][]byte) {
	c.g.begin()
	c.Controller.InstallPage(page, lines)
	c.g.end(&c.l.install)
}

// timedSource routes global OSPA lines to the per-core images, as the
// simulator's own line source does, timing each call.
type timedSource struct {
	base   []uint64 // first page of each core's range
	images []*workload.Image
	g      *ledger
}

func (s *timedSource) locate(lineAddr uint64) (*workload.Image, uint64) {
	page := lineAddr / memctl.LinesPerPage
	for i := len(s.base) - 1; i >= 0; i-- {
		if page >= s.base[i] {
			return s.images[i], lineAddr - s.base[i]*memctl.LinesPerPage
		}
	}
	panic(fmt.Sprintf("line %d outside every core's range", lineAddr))
}

func (s *timedSource) ReadLine(lineAddr uint64, buf []byte) {
	s.g.begin()
	img, local := s.locate(lineAddr)
	img.ReadLine(local, buf)
	s.g.end(&s.g.readLine)
}

func (s *timedSource) SizeLine(codec compress.Codec, lineAddr uint64) int {
	s.g.begin()
	img, local := s.locate(lineAddr)
	n := img.SizeLine(codec, local)
	s.g.end(&s.g.sizeLine)
	return n
}

// metrics returns the ledger's per-layer metrics.
func (g *ledger) metrics() map[string]float64 {
	steps := g.step.sortedDurs()
	m := map[string]float64{
		"workload.materialize_ns_per_page": perUnit(g.materialize, g.pages),
		"workload.size_all_ns_per_line":    perUnit(g.sizeAll, g.lines),
		"workload.record_ns_per_op":        perUnit(g.record, g.ops),
		"workload.next_ns":                 perUnit(g.next.total, g.next.calls),
		"workload.read_line_ns":            perUnit(g.readLine.total, g.readLine.calls),
		"workload.read_line_calls":         float64(g.readLine.calls),
		"workload.size_line_ns":            perUnit(g.sizeLine.total, g.sizeLine.calls),
		"workload.size_line_calls":         float64(g.sizeLine.calls),
		"cpu.step_ns":                      perUnit(g.step.total, g.step.calls),
		"cpu.step_ns_p50":                  nearestRank(steps, 50),
		"cpu.step_ns_p99":                  nearestRank(steps, 99),
		"cpu.self_ns":                      perUnit(g.step.self, g.step.calls),
	}
	top := g.next.total + g.step.total
	for name, l := range g.ctl {
		demand := l.read.calls + l.write.calls
		m["memctl.read_ns."+name] = perUnit(l.read.total, l.read.calls)
		m["memctl.write_ns."+name] = perUnit(l.write.total, l.write.calls)
		m["memctl.read_ns_p99."+name] = nearestRank(l.read.sortedDurs(), 99)
		m["memctl.self_ns."+name] = perUnit(l.read.self+l.write.self, demand)
		m["memctl.install_ns_per_page."+name] = perUnit(l.install.total, l.install.calls)
		m["memctl.calls."+name] = float64(demand)
		top += l.install.total
	}
	if g.window > 0 {
		m["ledger.residual_frac"] = 1 - top.Seconds()/g.window.Seconds()
	}
	return m
}

// perUnit returns d per unit in ns (0 for no units).
func perUnit(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
