package progress

import (
	"strings"
	"sync"
	"testing"
	"time"

	"compresso/internal/obs"
	"compresso/internal/parallel"
)

// The tracker is the grids' one progress sink, resilience events
// included.
var (
	_ parallel.Progress           = (*Tracker)(nil)
	_ parallel.ResilienceObserver = (*Tracker)(nil)
)

func TestTrackerStateAggregation(t *testing.T) {
	tr := NewTracker()
	tr.GridStart("a", 4)
	tr.GridCell("a", 0, time.Millisecond)
	tr.GridCell("a", 1, time.Millisecond)
	tr.GridStart("b", 2)
	tr.GridCell("b", 0, 2*time.Millisecond)

	st := tr.State()
	if st.CellsDone != 3 || st.CellsTotal != 6 {
		t.Fatalf("cells %d/%d, want 3/6", st.CellsDone, st.CellsTotal)
	}
	if len(st.Grids) != 2 {
		t.Fatalf("grids %d", len(st.Grids))
	}
	a := st.Grids[0]
	if a.Label != "a" || a.Done != 2 || a.Total != 4 || !a.Active {
		t.Fatalf("grid a = %+v", a)
	}
	if a.MeanCellS <= 0 {
		t.Fatalf("mean cell time %v", a.MeanCellS)
	}
	// Two incomplete active grids: the overall ETA is the max estimate.
	if st.EtaS <= 0 {
		t.Fatalf("eta %v", st.EtaS)
	}

	tr.GridEnd("a")
	tr.GridCell("b", 1, time.Millisecond)
	tr.GridEnd("b")
	st = tr.State()
	for _, g := range st.Grids {
		if g.Active {
			t.Fatalf("grid %s still active", g.Label)
		}
		if g.EtaS != 0 {
			t.Fatalf("finished grid %s has eta %v", g.Label, g.EtaS)
		}
	}
}

func TestTrackerUnknownGridDropped(t *testing.T) {
	tr := NewTracker()
	tr.GridCell("ghost", 0, time.Millisecond) // must not panic or invent a grid
	tr.GridEnd("ghost")
	if st := tr.State(); len(st.Grids) != 0 {
		t.Fatalf("ghost grid materialized: %+v", st.Grids)
	}
}

func TestTrackerReusedLabelStartsFreshGrid(t *testing.T) {
	tr := NewTracker()
	tr.GridStart("g", 1)
	tr.GridCell("g", 0, time.Millisecond)
	tr.GridEnd("g")
	tr.GridStart("g", 3)
	tr.GridCell("g", 0, time.Millisecond)
	st := tr.State()
	if len(st.Grids) != 2 {
		t.Fatalf("grids %d, want 2", len(st.Grids))
	}
	if st.Grids[1].Done != 1 || st.Grids[1].Total != 3 || !st.Grids[1].Active {
		t.Fatalf("second grid = %+v", st.Grids[1])
	}
}

func TestTrackerChromeEvents(t *testing.T) {
	tr := NewTracker()
	if tr.ChromeEvents(2) != nil {
		t.Fatal("empty tracker produced events")
	}
	tr.GridStart("g", 2)
	tr.GridCell("g", 0, time.Millisecond)
	tr.GridCell("g", 1, time.Millisecond)
	tr.GridEnd("g")
	events := tr.ChromeEvents(2)

	var spans, meta int
	for _, e := range events {
		switch e.Phase {
		case "X":
			spans++
			if e.Pid != 2 || e.DurUs < 0 {
				t.Fatalf("bad span %+v", e)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
	}
	// One grid span + two cell spans.
	if spans != 3 {
		t.Fatalf("spans = %d, want 3", spans)
	}
	if meta == 0 {
		t.Fatal("no naming metadata emitted")
	}
}

func TestTerminalRendersProgressLine(t *testing.T) {
	tr := NewTracker()
	var buf strings.Builder
	term := NewTerminal(tr, &buf)
	tr.GridStart("g", 2)
	tr.GridCell("g", 0, time.Millisecond)
	tr.GridEnd("g")
	term.Finish()
	out := buf.String()
	if !strings.Contains(out, "progress: 1/2 cells (50%)") {
		t.Fatalf("terminal output %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Finish did not terminate the line: %q", out)
	}
}

// lockedBuffer is a strings.Builder safe to read while the terminal's
// ticker writes to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestTerminalRedrawsWithoutEvents: the line redraws from the tracker
// on the terminal's own ticker, before Finish and without any event
// reaching the terminal.
func TestTerminalRedrawsWithoutEvents(t *testing.T) {
	tr := NewTracker()
	var buf lockedBuffer
	term := NewTerminal(tr, &buf)
	defer term.Finish()
	tr.GridStart("g", 4)
	tr.GridCell("g", 0, time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(buf.String(), "progress: 1/4 cells (25%)"); {
		if time.Now().After(deadline) {
			t.Fatalf("no redraw within 5s: %q", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTrackerConcurrentFeedAndPoll: workers feed one grid while the
// readers (State, Metrics, ChromeEvents) poll, as the server and the
// terminal do; the final totals count every event.
func TestTrackerConcurrentFeedAndPoll(t *testing.T) {
	const workers, cells = 4, 50
	tr := NewTracker()
	tr.GridStart("g", workers*cells)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				tr.State()
				tr.Metrics(obs.NewRegistry())
				tr.ChromeEvents(2)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				tr.CellRetry("g", w*cells+i, 1, time.Millisecond, nil)
				tr.GridCell("g", w*cells+i, time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-polled
	tr.GridEnd("g")

	r := obs.NewRegistry()
	tr.Metrics(r)
	snap := r.Snapshot()
	if got := snap.Counters["harness.cells_done"]; got != workers*cells {
		t.Fatalf("cells_done = %d, want %d", got, workers*cells)
	}
	if got := snap.Counters["harness.retry_backoff_ms"]; got != workers*cells {
		t.Fatalf("retry_backoff_ms = %d, want %d", got, workers*cells)
	}
	if st := tr.State(); st.CellsDone != workers*cells || st.Retries != workers*cells {
		t.Fatalf("state = %+v", st)
	}
}
