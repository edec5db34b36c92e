package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"compresso/internal/obs"
	"compresso/internal/progress"
)

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	return startTrackerServer(t, progress.NewTracker())
}

// startTrackerServer serves tr's progress and harness metrics.
func startTrackerServer(t *testing.T, tr *progress.Tracker) (*Server, string) {
	t.Helper()
	s := New(tr)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func get(t *testing.T, addr, path string) (string, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	s, addr := startTestServer(t)

	// Feed it like a run would: grid progress, run samples, a trace.
	s.tracker.GridStart("fig2", 3)
	s.tracker.GridCell("fig2", 0, 5*time.Millisecond)
	s.tracker.GridCell("fig2", 1, 7*time.Millisecond)

	s.AttachRun("gcc_compresso", 1000)
	snap := obs.Snapshot{Counters: map[string]uint64{"memctl.demand_reads": 11}}
	s.SampleRun(1000, snap)
	snap2 := obs.Snapshot{Counters: map[string]uint64{"memctl.demand_reads": 30}}
	s.SampleRun(2000, snap2)

	tr := obs.NewTracer(4)
	tr.Emit(10, obs.EvLineOverflow, 3, 1)
	s.PublishTrace(tr.Trace())

	body, _ := get(t, addr, "/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz = %q", body)
	}

	body, ctype := get(t, addr, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type %q", ctype)
	}
	if err := CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"harness_cells_done 2",
		"harness_cells_total 3",
		`memctl_demand_reads{run="gcc_compresso"} 30`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, ctype = get(t, addr, "/progress")
	if ctype != "application/json" {
		t.Fatalf("progress content type %q", ctype)
	}
	var st progress.State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if st.CellsDone != 2 || st.CellsTotal != 3 {
		t.Fatalf("/progress state %+v", st)
	}

	body, _ = get(t, addr, "/timeseries")
	var ts struct {
		Run *struct {
			Name   string     `json:"name"`
			Series obs.Series `json:"series"`
		} `json:"run"`
		Harness obs.Series `json:"harness"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/timeseries not JSON: %v", err)
	}
	if ts.Run == nil || ts.Run.Name != "gcc_compresso" || len(ts.Run.Series.Windows) != 2 {
		t.Fatalf("/timeseries run = %+v", ts.Run)
	}
	// Second window is the delta 30-11.
	if got := ts.Run.Series.Windows[1].Delta.Counters["memctl.demand_reads"]; got != 19 {
		t.Fatalf("window delta = %d, want 19", got)
	}

	body, _ = get(t, addr, "/events")
	var trace obs.Trace
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if trace.Total != 1 || len(trace.Events) != 1 {
		t.Fatalf("/events trace = %+v", trace)
	}

	body, _ = get(t, addr, "/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("pprof cmdline empty")
	}
}

// getStatus is the raw counterpart of get for handlers that are
// expected to refuse the request.
func getStatus(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEventsFilters(t *testing.T) {
	s, addr := startTestServer(t)
	tr := obs.NewTracer(16)
	tr.Emit(10, obs.EvLineOverflow, 3, 1)
	tr.Emit(20, obs.EvRepack, 4, 0)
	tr.Emit(30, obs.EvLineOverflow, 5, 2)
	tr.Emit(40, obs.EvRepack, 6, 0)
	s.PublishTrace(tr.Trace())

	decode := func(body string) obs.Trace {
		t.Helper()
		var trace obs.Trace
		if err := json.Unmarshal([]byte(body), &trace); err != nil {
			t.Fatalf("/events not JSON: %v\n%s", err, body)
		}
		return trace
	}

	body, _ := get(t, addr, "/events?kind=line-overflow")
	trace := decode(body)
	if len(trace.Events) != 2 {
		t.Fatalf("kind filter kept %d events, want 2", len(trace.Events))
	}
	for _, e := range trace.Events {
		if e.Kind != obs.EvLineOverflow {
			t.Fatalf("kind filter leaked %v", e.Kind)
		}
	}
	// Capacity/Total describe the underlying trace, not the filtered view.
	if trace.Total != 4 {
		t.Fatalf("filtered trace lost totals: %+v", trace)
	}

	body, _ = get(t, addr, "/events?limit=2")
	trace = decode(body)
	if len(trace.Events) != 2 || trace.Events[0].Cycle != 30 || trace.Events[1].Cycle != 40 {
		t.Fatalf("limit did not keep the newest 2 events: %+v", trace.Events)
	}

	body, _ = get(t, addr, "/events?kind=repack&limit=1")
	trace = decode(body)
	if len(trace.Events) != 1 || trace.Events[0].Cycle != 40 {
		t.Fatalf("combined filter wrong: %+v", trace.Events)
	}

	if body, _ := get(t, addr, "/events?limit=0"); len(decode(body).Events) != 0 {
		t.Fatal("limit=0 returned events")
	}
	// A limit beyond the trace is a no-op, not an error.
	if body, _ := get(t, addr, "/events?limit=999"); len(decode(body).Events) != 4 {
		t.Fatal("oversized limit dropped events")
	}

	for _, path := range []string{
		"/events?kind=nope",
		"/events?limit=-1",
		"/events?limit=abc",
	} {
		if code, body := getStatus(t, addr, path); code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d (%q), want 400", path, code, body)
		}
	}
}

func TestServerAttributionEndpoint(t *testing.T) {
	s, addr := startTestServer(t)

	// Before any run publishes, the endpoint serves the empty-shaped
	// snapshot: full component vector, zero totals.
	body, ctype := get(t, addr, "/attribution")
	if ctype != "application/json" {
		t.Fatalf("attribution content type %q", ctype)
	}
	var snap obs.AttributionSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/attribution not JSON: %v", err)
	}
	if len(snap.Components) != int(obs.NComponents) || snap.Accesses != 0 {
		t.Fatalf("empty attribution malformed: %d components, %d accesses", len(snap.Components), snap.Accesses)
	}

	a := obs.NewAttribution(4)
	a.Begin(100, 7, false)
	a.ExposedDRAM(10, 26)
	a.Exposed(obs.CompDecompress, 9)
	a.End(145)
	s.PublishAttribution(a.Snapshot())

	body, _ = get(t, addr, "/attribution")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/attribution not JSON: %v", err)
	}
	if snap.Accesses != 1 || snap.ChargedCycles != 45 {
		t.Fatalf("published snapshot lost: %+v", snap)
	}
	if snap.Components[obs.CompDecompress].ExposedCycles != 9 {
		t.Fatalf("component breakdown lost: %+v", snap.Components[obs.CompDecompress])
	}
}

func TestServerNoRunNoGrids(t *testing.T) {
	_, addr := startTestServer(t)

	// Without a run or grids, /metrics still exposes the harness gauge
	// and must parse.
	body, _ := get(t, addr, "/metrics")
	if !strings.Contains(body, "harness_uptime_seconds") {
		t.Fatalf("missing uptime gauge:\n%s", body)
	}
	if err := CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails validation: %v", err)
	}
	if body, _ := get(t, addr, "/progress"); strings.TrimSpace(body) == "" {
		t.Fatal("empty /progress body")
	}
	if body, _ := get(t, addr, "/timeseries"); !strings.Contains(body, "harness") {
		t.Fatalf("/timeseries = %q", body)
	}
}

func TestServerStartRewritesUnspecifiedHost(t *testing.T) {
	s := New(progress.NewTracker())
	addr, err := s.Start(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("addr = %q, want 127.0.0.1:PORT", addr)
	}
	if _, err := fmt.Sscanf(addr, "127.0.0.1:%d", new(int)); err != nil {
		t.Fatalf("addr %q not host:port", addr)
	}
}

// TestServerHarnessMetricsFromTracker drives a tracker through a
// scripted sweep and requires /metrics and the /timeseries harness
// window to carry the hand-computed harness.* totals.
func TestServerHarnessMetricsFromTracker(t *testing.T) {
	tr := progress.NewTracker()
	tr.GridStart("fig10", 3)
	tr.GridCell("fig10", 0, 5*time.Millisecond)
	tr.GridCell("fig10", 1, 7*time.Millisecond+900*time.Microsecond) // 7 ms bucket
	tr.CellRetry("fig10", 2, 1, 1500*time.Microsecond, nil)          // 1 ms
	tr.CellRetry("fig10", 2, 2, 4*time.Millisecond, nil)             // 4 ms
	tr.CellQuarantined("fig10", 2, 3, nil)
	tr.GridEnd("fig10")
	tr.GridStart("tab2", 2)
	tr.CellReplayed("tab2", 0)
	tr.GridCell("tab2", 0, 300*time.Microsecond) // 0 ms bucket
	tr.GridCell("tab2", 1, 7*time.Millisecond)
	// tab2 is still running: one grid started but not done.

	want := obs.Snapshot{
		Counters: map[string]uint64{
			"harness.grids_started":     2,
			"harness.grids_done":        1,
			"harness.cells_total":       5,
			"harness.cells_done":        4,
			"harness.cell_retries":      2,
			"harness.retry_backoff_ms":  5,
			"harness.cells_quarantined": 1,
			"harness.cells_replayed":    1,
		},
		Hists: map[string]obs.HistSnapshot{
			"harness.cell_wall_ms": {Total: 4, Buckets: map[string]uint64{"0": 1, "5": 1, "7": 2}},
		},
	}

	s, addr := startTrackerServer(t, tr)
	body, _ := get(t, addr, "/metrics")
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "harness_") && !strings.HasPrefix(line, "harness_uptime_seconds ") {
			got = append(got, line)
		}
	}
	wantLines := []string{
		`harness_cell_retries 2`,
		`harness_cell_wall_ms_bucket{le="0"} 1`,
		`harness_cell_wall_ms_bucket{le="5"} 2`,
		`harness_cell_wall_ms_bucket{le="7"} 4`,
		`harness_cell_wall_ms_bucket{le="+Inf"} 4`,
		`harness_cell_wall_ms_sum 19`,
		`harness_cell_wall_ms_count 4`,
		`harness_cells_done 4`,
		`harness_cells_quarantined 1`,
		`harness_cells_replayed 1`,
		`harness_cells_total 5`,
		`harness_grids_done 1`,
		`harness_grids_started 2`,
		`harness_retry_backoff_ms 5`,
	}
	if !reflect.DeepEqual(got, wantLines) {
		t.Fatalf("/metrics harness lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}
	if !strings.Contains(body, "\nharness_uptime_seconds ") {
		t.Fatalf("/metrics missing the uptime gauge:\n%s", body)
	}

	s.sampleHarness()
	body, _ = get(t, addr, "/timeseries")
	var ts struct {
		Harness obs.Series `json:"harness"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/timeseries not JSON: %v", err)
	}
	if len(ts.Harness.Windows) == 0 {
		t.Fatalf("/timeseries has no harness window: %s", body)
	}
	// The tracker was complete before the server started, so the first
	// window's delta is the whole sweep.
	w := ts.Harness.Windows[0].Delta
	if _, ok := w.Gauges["harness.uptime_seconds"]; !ok {
		t.Fatalf("harness window lacks the uptime gauge: %+v", w.Gauges)
	}
	w.Gauges = nil
	if !reflect.DeepEqual(w, want) {
		t.Fatalf("harness window delta = %+v\nwant %+v", w, want)
	}
}
