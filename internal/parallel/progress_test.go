package parallel

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// recorder is a concurrency-safe Progress sink for tests.
type recorder struct {
	mu     sync.Mutex
	starts []string
	ends   []string
	cells  []int
	walls  []time.Duration
}

func (r *recorder) GridStart(label string, cells int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, label)
}

func (r *recorder) GridCell(label string, index int, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells = append(r.cells, index)
	r.walls = append(r.walls, wall)
}

func (r *recorder) GridEnd(label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, label)
}

// squares is a MapResilient cell that never fails.
func squares(ctx context.Context, i, attempt int) (int, error) { return i * i, nil }

// checkGrid requires one GridStart/GridEnd pair labelled label, exactly
// one GridCell per cell index below n, and no negative wall time.
func checkGrid(t *testing.T, jobs int, rec *recorder, label string, n int) {
	t.Helper()
	if !reflect.DeepEqual(rec.starts, []string{label}) || !reflect.DeepEqual(rec.ends, []string{label}) {
		t.Fatalf("jobs=%d: starts %v ends %v", jobs, rec.starts, rec.ends)
	}
	cells := append([]int(nil), rec.cells...)
	sort.Ints(cells)
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("jobs=%d: cells %v", jobs, cells)
	}
	for _, w := range rec.walls {
		if w < 0 {
			t.Fatalf("jobs=%d: negative wall time %v", jobs, w)
		}
	}
}

// TestMapProgressReportsEveryCellOnce: at every worker count a Progress
// sink on MapResilient sees one GridStart/GridEnd pair per grid and
// exactly one GridCell per cell.
func TestMapProgressReportsEveryCellOnce(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		rec := &recorder{}
		out, _, err := MapResilient(Run{Jobs: jobs, Progress: rec, Label: "g"}, 10, squares)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d", jobs, i, v)
			}
		}
		checkGrid(t, jobs, rec, "g", 10)
	}
}

// TestMapProgressResultsMatchMap: attaching a Progress sink to
// MapResilient never changes its results, which equal Map's.
func TestMapProgressResultsMatchMap(t *testing.T) {
	fn := func(i int) int { return i*7 + 1 }
	plain := Map(3, 20, fn)
	tracked, _, err := MapResilient(Run{Jobs: 3, Progress: &recorder{}, Label: "g"}, 20, func(ctx context.Context, i, attempt int) (int, error) {
		return fn(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, tracked) {
		t.Fatal("progress sink changed results")
	}
}

// TestMapErrProgress: on the error path a quarantined failed cell still
// reports exactly one GridCell, and the other cells keep their results.
func TestMapErrProgress(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		rec := &recorder{}
		out, failures, err := MapResilient(Run{Jobs: jobs, Progress: rec, Label: "e", Quarantine: true}, 10, func(ctx context.Context, i, attempt int) (int, error) {
			if i == 6 {
				return 0, errors.New("cell 6 failed")
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(failures) != 1 || failures[0].Index != 6 {
			t.Fatalf("jobs=%d: failures %v, want cell 6 only", jobs, failures)
		}
		for i, v := range out {
			want := i * i
			if i == 6 {
				want = 0
			}
			if v != want {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, want)
			}
		}
		checkGrid(t, jobs, rec, "e", 10)
	}
}

// TestMapProgressNilSink: MapResilient runs with no Progress sink.
func TestMapProgressNilSink(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		out, _, err := MapResilient(Run{Jobs: jobs}, 3, func(ctx context.Context, i, attempt int) (int, error) {
			return i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(out, []int{0, 1, 2}) {
			t.Fatalf("jobs=%d: out = %v", jobs, out)
		}
	}
}

// TestProgressGridEndFiresOnPanic: a panicking cell fails the grid with
// a *PanicError, reports its own GridCell like any other failed cell,
// and GridEnd still fires.
func TestProgressGridEndFiresOnPanic(t *testing.T) {
	rec := &recorder{}
	_, _, err := MapResilient(Run{Jobs: 2, Progress: rec, Label: "p"}, 4, func(ctx context.Context, i, attempt int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if !reflect.DeepEqual(rec.ends, []string{"p"}) {
		t.Fatalf("GridEnd not reported on panic: %v", rec.ends)
	}
	reported := 0
	for _, c := range rec.cells {
		if c == 2 {
			reported++
		}
	}
	if reported != 1 {
		t.Fatalf("panicking cell reported %d GridCells, want 1", reported)
	}
}
