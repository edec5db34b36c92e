// Package progress implements run-progress tracking for the
// experiment grids: a concurrency-safe Tracker that accumulates the
// parallel.Progress event stream into cells-done/total state with an
// ETA, a throttled single-line terminal renderer, and a Chrome/
// Perfetto span exporter for per-cell wall times. Everything here is
// display and telemetry only — sinks observe the grids, they never
// influence results (DESIGN.md §9).
package progress

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"compresso/internal/obs"
	"compresso/internal/parallel"
)

// cellSpan is one completed cell's wall-clock extent, as offsets from
// the tracker's epoch.
type cellSpan struct {
	index      int
	start, end time.Duration
}

// grid is one MapResilient grid's accumulated state.
type grid struct {
	label  string
	total  int
	done   int
	start  time.Duration // offset from the tracker epoch
	end    time.Duration
	active bool
	wall   time.Duration // summed cell wall time
	cells  []cellSpan

	// Resilience events (parallel.ResilienceObserver).
	retries     int
	quarantined int
	replayed    int
}

// Tracker accumulates progress events from any number of concurrent
// grids. It is safe for concurrent use and implements
// parallel.Progress.
type Tracker struct {
	mu      sync.Mutex
	epoch   time.Time
	grids   []*grid
	byLabel map[string]int // label -> newest grid index
}

// NewTracker returns an empty tracker; its epoch (the zero point for
// span timestamps) is the moment of creation.
func NewTracker() *Tracker {
	return &Tracker{epoch: time.Now(), byLabel: map[string]int{}}
}

func (t *Tracker) since() time.Duration { return time.Since(t.epoch) }

// GridStart implements parallel.Progress. A label that was used by an
// earlier, finished grid starts a fresh grid under the same label.
func (t *Tracker) GridStart(label string, cells int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.grids = append(t.grids, &grid{
		label: label, total: cells, start: t.since(), active: true,
	})
	t.byLabel[label] = len(t.grids) - 1
}

// GridCell implements parallel.Progress.
func (t *Tracker) GridCell(label string, index int, wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.lookup(label)
	if g == nil {
		return // cell for an unknown grid: drop rather than invent state
	}
	now := t.since()
	g.done++
	g.wall += wall
	g.cells = append(g.cells, cellSpan{index: index, start: now - wall, end: now})
}

// GridEnd implements parallel.Progress.
func (t *Tracker) GridEnd(label string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g := t.lookup(label); g != nil {
		g.active = false
		g.end = t.since()
	}
}

// CellRetry implements parallel.ResilienceObserver.
func (t *Tracker) CellRetry(label string, index, attempt int, backoff time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g := t.lookup(label); g != nil {
		g.retries++
	}
}

// CellQuarantined implements parallel.ResilienceObserver.
func (t *Tracker) CellQuarantined(label string, index, attempts int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g := t.lookup(label); g != nil {
		g.quarantined++
	}
}

// CellReplayed implements parallel.ResilienceObserver.
func (t *Tracker) CellReplayed(label string, index int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g := t.lookup(label); g != nil {
		g.replayed++
	}
}

// lookup returns the newest grid registered under label (nil when the
// label never started). Callers hold t.mu.
func (t *Tracker) lookup(label string) *grid {
	i, ok := t.byLabel[label]
	if !ok {
		return nil
	}
	return t.grids[i]
}

// GridState is one grid's public progress.
type GridState struct {
	Label    string  `json:"label"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Active   bool    `json:"active"`
	ElapsedS float64 `json:"elapsed_s"`
	// MeanCellS is the mean per-cell wall time in seconds (0 until a
	// cell completes).
	MeanCellS float64 `json:"mean_cell_s,omitempty"`
	// EtaS estimates the grid's remaining seconds from its observed
	// completion rate (0 when finished or not yet estimable).
	EtaS float64 `json:"eta_s,omitempty"`
	// Resilience counters (DESIGN.md §11): retried attempts,
	// quarantined cells, and cells replayed from the run journal.
	Retries     int `json:"retries,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Replayed    int `json:"replayed,omitempty"`
}

// State is the tracker's aggregate progress, the payload behind the
// /progress endpoint and the terminal line.
type State struct {
	ElapsedS   float64 `json:"elapsed_s"`
	CellsDone  int     `json:"cells_done"`
	CellsTotal int     `json:"cells_total"`
	// EtaS is the maximum over the active grids' estimates — the
	// sweep is done when its slowest grid is.
	EtaS  float64     `json:"eta_s,omitempty"`
	Grids []GridState `json:"grids,omitempty"`
	// Aggregate resilience counters across grids.
	Retries     int `json:"retries,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Replayed    int `json:"replayed,omitempty"`
}

// State snapshots the tracker.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.since()
	st := State{ElapsedS: now.Seconds()}
	for _, g := range t.grids {
		elapsed := g.end
		if g.active {
			elapsed = now - g.start
		} else {
			elapsed -= g.start
		}
		gs := GridState{
			Label: g.label, Done: g.done, Total: g.total,
			Active: g.active, ElapsedS: elapsed.Seconds(),
			Retries: g.retries, Quarantined: g.quarantined, Replayed: g.replayed,
		}
		st.Retries += g.retries
		st.Quarantined += g.quarantined
		st.Replayed += g.replayed
		if g.done > 0 {
			gs.MeanCellS = (g.wall / time.Duration(g.done)).Seconds()
			if g.active && g.done < g.total {
				gs.EtaS = elapsed.Seconds() / float64(g.done) * float64(g.total-g.done)
				if gs.EtaS > st.EtaS {
					st.EtaS = gs.EtaS
				}
			}
		}
		st.CellsDone += g.done
		st.CellsTotal += g.total
		st.Grids = append(st.Grids, gs)
	}
	return st
}

// ChromeEvents exports every grid and completed cell as Chrome/
// Perfetto duration spans under the given pid. Each grid owns a block
// of tids: the grid's own span on the base tid, its cells lane-packed
// onto the following tids so overlapping (parallel) cells render on
// separate tracks.
func (t *Tracker) ChromeEvents(pid int) []obs.ChromeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.grids) == 0 {
		return nil
	}
	const lanesPerGrid = 64
	now := t.since()
	out := []obs.ChromeEvent{obs.ProcessName(pid, "experiment-grids")}
	for gi, g := range t.grids {
		base := gi * lanesPerGrid
		end := g.end
		if g.active {
			end = now
		}
		out = append(out, obs.ThreadName(pid, base, "grid:"+g.label))
		out = append(out, obs.ChromeEvent{
			Name: g.label, Cat: "grid", Phase: "X",
			TsUs: g.start.Seconds() * 1e6, DurUs: (end - g.start).Seconds() * 1e6,
			Pid: pid, Tid: base,
			Args: map[string]interface{}{"cells": g.total, "done": g.done},
		})
		// Greedy lane packing: a cell takes the first lane whose last
		// span ended before the cell started.
		laneEnd := make([]time.Duration, 0, 8)
		for _, c := range g.cells {
			lane := -1
			for li, le := range laneEnd {
				if le <= c.start {
					lane = li
					break
				}
			}
			if lane == -1 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
				if lane < lanesPerGrid-1 {
					out = append(out, obs.ThreadName(pid, base+1+lane,
						fmt.Sprintf("%s workers #%d", g.label, lane)))
				}
			}
			laneEnd[lane] = c.end
			tid := base + 1 + lane%(lanesPerGrid-1)
			out = append(out, obs.ChromeEvent{
				Name: fmt.Sprintf("%s[%d]", g.label, c.index), Cat: "cell", Phase: "X",
				TsUs: c.start.Seconds() * 1e6, DurUs: (c.end - c.start).Seconds() * 1e6,
				Pid: pid, Tid: tid,
				Args: map[string]interface{}{"index": c.index},
			})
		}
	}
	return out
}

// Terminal renders a tracker's state as a single throttled line
// (carriage-return overwritten) on each progress event. It implements
// parallel.Progress but does not accumulate state itself — combine it
// with the Tracker it renders via Multi, Tracker first.
type Terminal struct {
	tr    *Tracker
	w     io.Writer
	every time.Duration

	mu    sync.Mutex
	last  time.Time
	width int
}

// NewTerminal returns a renderer for tr writing to w, redrawing at
// most every 200 ms.
func NewTerminal(tr *Tracker, w io.Writer) *Terminal {
	return &Terminal{tr: tr, w: w, every: 200 * time.Millisecond}
}

// GridStart implements parallel.Progress.
func (t *Terminal) GridStart(string, int) { t.render(false) }

// GridCell implements parallel.Progress.
func (t *Terminal) GridCell(string, int, time.Duration) { t.render(false) }

// GridEnd implements parallel.Progress.
func (t *Terminal) GridEnd(string) { t.render(true) }

// CellRetry implements parallel.ResilienceObserver.
func (t *Terminal) CellRetry(string, int, int, time.Duration, error) { t.render(false) }

// CellQuarantined implements parallel.ResilienceObserver.
func (t *Terminal) CellQuarantined(string, int, int, error) { t.render(false) }

// CellReplayed implements parallel.ResilienceObserver.
func (t *Terminal) CellReplayed(string, int) { t.render(false) }

// Finish forces a final render and terminates the line.
func (t *Terminal) Finish() {
	t.render(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.width > 0 {
		fmt.Fprintln(t.w)
	}
}

func (t *Terminal) render(force bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if !force && now.Sub(t.last) < t.every {
		return
	}
	t.last = now
	st := t.tr.State()
	line := fmt.Sprintf("progress: %d/%d cells", st.CellsDone, st.CellsTotal)
	if st.CellsTotal > 0 {
		line += fmt.Sprintf(" (%d%%)", 100*st.CellsDone/st.CellsTotal)
	}
	line += fmt.Sprintf(" · elapsed %.1fs", st.ElapsedS)
	if st.EtaS > 0 {
		line += fmt.Sprintf(" · eta %.0fs", st.EtaS)
	}
	if st.Replayed > 0 {
		line += fmt.Sprintf(" · %d replayed", st.Replayed)
	}
	if st.Retries > 0 {
		line += fmt.Sprintf(" · %d retries", st.Retries)
	}
	if st.Quarantined > 0 {
		line += fmt.Sprintf(" · %d quarantined", st.Quarantined)
	}
	pad := t.width - len(line)
	if len(line) > t.width {
		t.width = len(line)
	}
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(t.w, "\r%s%s", line, strings.Repeat(" ", pad))
}

// multi fans progress events out to several sinks in order.
type multi []parallel.Progress

// Multi combines progress sinks; events reach each non-nil sink in
// argument order (put the Tracker before any Terminal rendering it).
// Returns nil when no usable sink remains.
func Multi(ps ...parallel.Progress) parallel.Progress {
	var m multi
	for _, p := range ps {
		if p != nil {
			m = append(m, p)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

// GridStart implements parallel.Progress.
func (m multi) GridStart(label string, cells int) {
	for _, p := range m {
		p.GridStart(label, cells)
	}
}

// GridCell implements parallel.Progress.
func (m multi) GridCell(label string, index int, wall time.Duration) {
	for _, p := range m {
		p.GridCell(label, index, wall)
	}
}

// GridEnd implements parallel.Progress.
func (m multi) GridEnd(label string) {
	for _, p := range m {
		p.GridEnd(label)
	}
}

// CellRetry implements parallel.ResilienceObserver; the event reaches
// each combined sink that also observes resilience events.
func (m multi) CellRetry(label string, index, attempt int, backoff time.Duration, err error) {
	for _, p := range m {
		if o, ok := p.(parallel.ResilienceObserver); ok {
			o.CellRetry(label, index, attempt, backoff, err)
		}
	}
}

// CellQuarantined implements parallel.ResilienceObserver.
func (m multi) CellQuarantined(label string, index, attempts int, err error) {
	for _, p := range m {
		if o, ok := p.(parallel.ResilienceObserver); ok {
			o.CellQuarantined(label, index, attempts, err)
		}
	}
}

// CellReplayed implements parallel.ResilienceObserver.
func (m multi) CellReplayed(label string, index int) {
	for _, p := range m {
		if o, ok := p.(parallel.ResilienceObserver); ok {
			o.CellReplayed(label, index)
		}
	}
}
