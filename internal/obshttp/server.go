// Package obshttp is the serving half of the observability layer: a
// live HTTP introspection server exposing the harness's progress and
// metrics while a run executes. Endpoints: /metrics (Prometheus text
// exposition), /timeseries, /events (JSON; ?kind= and ?limit= filter
// the trace), /attribution (JSON cycle-accounting snapshot, DESIGN.md
// §14), /progress (JSON), /healthz, and the standard net/http/pprof
// handlers under /debug/pprof/.
//
// The server is determinism-neutral by construction: it only ever
// reads mutex-guarded snapshot copies published into it and the
// progress Tracker's state (polled by its own wall-clock sampler and
// each /metrics scrape), so a run's artifacts are byte-identical with
// the server on or off (DESIGN.md §9).
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"compresso/internal/obs"
	"compresso/internal/progress"
)

// harnessSampleMs is the wall-clock period of the server's own
// harness-metrics sampler (the /timeseries "harness" series).
const harnessSampleMs = 1000

// runSeriesWindows bounds the run series the server retains.
const runSeriesWindows = 1024

// Server is the live introspection server. Its harness metrics are
// derived from the progress Tracker the experiment grids feed, and run
// loops publish registry snapshots into it via SampleRun / PublishRun.
// All state is guarded by one mutex; handlers serve copies.
type Server struct {
	mu      sync.Mutex
	tracker *progress.Tracker
	epoch   time.Time

	// Wall-clock time series of the harness metrics.
	hSampler *obs.Sampler

	// Latest published run state.
	runName   string
	runSnap   obs.Snapshot
	runSample *obs.Sampler
	trace     obs.Trace
	attrib    obs.AttributionSnapshot

	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// New returns a server whose /progress and harness metrics read
// tracker.
func New(tracker *progress.Tracker) *Server {
	return &Server{
		tracker:  tracker,
		epoch:    time.Now(),
		hSampler: obs.NewSampler(harnessSampleMs, 512),
		done:     make(chan struct{}),
	}
}

// Start listens on addr (host:port; port 0 picks a free port) and
// serves until Close. It returns the address the listener bound,
// rewritten to 127.0.0.1 when the host was unspecified so the result
// is directly curl-able.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/timeseries", s.handleTimeseries)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/attribution", s.handleAttribution)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	go s.sampleLoop()

	host, port, _ := net.SplitHostPort(ln.Addr().String())
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port), nil
}

// Close stops the listener and the harness sampler.
func (s *Server) Close() error {
	close(s.done)
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// sampleLoop snapshots the harness metrics once per second into the
// wall-clock time series, so /timeseries has a timeline even for runs
// (experiment sweeps) that carry no per-window run sampler.
func (s *Server) sampleLoop() {
	tick := time.NewTicker(harnessSampleMs * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			s.sampleHarness()
		}
	}
}

// sampleHarness closes one window of the /timeseries harness series.
func (s *Server) sampleHarness() {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := time.Since(s.epoch)
	s.hSampler.Sample(uint64(up.Milliseconds()), s.harness(up))
}

// harness derives the harness.* metrics from the tracker, plus the
// server's uptime gauge.
func (s *Server) harness(up time.Duration) obs.Snapshot {
	reg := obs.NewRegistry()
	s.tracker.Metrics(reg)
	reg.Gauge("harness.uptime_seconds").Set(up.Seconds())
	return reg.Snapshot()
}

// AttachRun prepares the server for a sampled run: /timeseries serves
// the windows SampleRun feeds under this name, every being the run's
// sampling period in demand operations. A new AttachRun replaces the
// previous run's series.
func (s *Server) AttachRun(name string, every uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runName = name
	s.runSample = obs.NewSampler(every, runSeriesWindows)
}

// SampleRun ingests one live sample from a run loop (the
// sim.Config.OnSample hook): the cumulative snapshot becomes the
// latest /metrics run section, its delta a /timeseries window.
func (s *Server) SampleRun(cycle uint64, snap obs.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runSnap = snap
	s.runSample.Sample(cycle, snap)
}

// PublishRun publishes a run's end-of-run snapshot (used when the run
// was not sampled, and to pin the final state when it was).
func (s *Server) PublishRun(name string, snap obs.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runName = name
	s.runSnap = snap
}

// PublishTrace publishes a run's controller-event trace for /events.
func (s *Server) PublishTrace(t obs.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = t
}

// PublishAttribution publishes a run's cycle-accounting snapshot for
// /attribution.
func (s *Server) PublishAttribution(a obs.AttributionSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrib = a
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	harness := s.harness(time.Since(s.epoch))
	s.mu.Lock()
	runName, runSnap := s.runName, s.runSnap
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteExposition(w, harness, nil); err != nil {
		return
	}
	if runName != "" {
		WriteExposition(w, runSnap, map[string]string{"run": runName})
	}
}

// timeseriesPayload is the /timeseries JSON schema.
type timeseriesPayload struct {
	// Run is the sampled run's windowed series (cycle-timed), absent
	// until a run with -sample-every publishes windows.
	Run *struct {
		Name   string     `json:"name"`
		Series obs.Series `json:"series"`
	} `json:"run,omitempty"`
	// Harness is the server's own wall-clock series over the harness
	// metrics (window bounds in milliseconds since server start).
	Harness obs.Series `json:"harness"`
}

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	p := timeseriesPayload{Harness: s.hSampler.Series()}
	if s.runSample.Enabled() {
		p.Run = &struct {
			Name   string     `json:"name"`
			Series obs.Series `json:"series"`
		}{Name: s.runName, Series: s.runSample.Series()}
	}
	s.mu.Unlock()
	writeJSON(w, p)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	t := s.trace
	s.mu.Unlock()
	q := r.URL.Query()
	if name := q.Get("kind"); name != "" {
		kind, ok := obs.EventKindByName(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown event kind %q", name), http.StatusBadRequest)
			return
		}
		filtered := make([]obs.Event, 0, len(t.Events))
		for _, e := range t.Events {
			if e.Kind == kind {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			filtered = nil // keep the empty trace's JSON shape (omitempty)
		}
		t.Events = filtered
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q (want a non-negative integer)", ls), http.StatusBadRequest)
			return
		}
		if n < len(t.Events) {
			t.Events = t.Events[len(t.Events)-n:] // newest n events
		}
		if n == 0 {
			t.Events = nil
		}
	}
	writeJSON(w, t)
}

// handleAttribution serves the latest published cycle-accounting
// snapshot; before any run publishes one it serves the empty-shaped
// snapshot so the JSON schema is always complete.
func (s *Server) handleAttribution(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := s.attrib
	s.mu.Unlock()
	if snap.Components == nil {
		snap = obs.EmptyAttributionSnapshot()
	}
	writeJSON(w, snap)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.tracker.State())
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
