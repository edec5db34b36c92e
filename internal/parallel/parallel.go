// Package parallel is the deterministic fan-out primitive behind the
// experiment runners: it spreads independent simulation cells across a
// bounded set of worker goroutines and reassembles the results in
// submission (index) order, so a parallel sweep is byte-identical to
// the serial run at the same seed.
//
// The determinism contract (see DESIGN.md §7):
//
//   - Cells must be order-independent: cell i may not read state
//     written by cell j. Each simulation cell builds its own trace,
//     DRAM, controller and caches, so this holds by construction.
//   - Results are placed by index, never by completion order.
//   - Error and panic propagation are deterministic: the reported
//     failure is the one a serial loop would have hit first,
//     regardless of goroutine scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress receives grid-execution notifications from MapResilient:
// one GridStart per grid, one GridCell per cell that ran (with its
// wall time, failed and panicking cells included), and a closing
// GridEnd. Implementations must be safe for concurrent use — GridCell
// is called from worker goroutines in completion order, which is
// scheduler-dependent, so a Progress sink must never influence results
// (display and telemetry only; see the determinism contract in
// DESIGN.md §7/§9).
type Progress interface {
	GridStart(label string, cells int)
	GridCell(label string, index int, wall time.Duration)
	GridEnd(label string)
}

// Workers resolves a requested job bound for n cells: jobs <= 0 means
// GOMAXPROCS, and the bound never exceeds the cell count.
func Workers(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// cellPanic carries a recovered panic value out of a worker.
type cellPanic struct {
	value any
}

// Map runs fn(0) .. fn(n-1) across at most jobs worker goroutines
// (jobs <= 0 means GOMAXPROCS) and returns the results in index order.
// With jobs == 1 the cells run on the calling goroutine in index
// order, exactly like the loop it replaces.
//
// If any cell panics, Map completes the remaining cells and then
// re-panics with the lowest-index cell's panic value, so the caller
// sees the same panic a serial loop would have surfaced first.
func Map[T any](jobs, n int, fn func(int) T) []T {
	out := make([]T, n)
	panics := fanOut(jobs, n, func(i int) { out[i] = fn(i) })
	for _, pc := range panics {
		if pc != nil {
			panic(pc.value)
		}
	}
	return out
}

// Strided runs fn(0) .. fn(n-1) on Workers(jobs, n) goroutines, worker
// w taking indices w, w+workers, w+2*workers, ...: a fixed partition,
// so workers that write per-index state touch disjoint entries. With
// one worker it is the serial loop on the calling goroutine. Panics
// surface as in Map.
func Strided(jobs, n int, fn func(i int)) {
	workers := Workers(jobs, n)
	Map(workers, workers, func(w int) struct{} {
		for i := w; i < n; i += workers {
			fn(i)
		}
		return struct{}{}
	})
}

// fanOut executes cell(0..n-1) across Workers(jobs, n) goroutines and
// returns any recovered panics indexed by cell. Workers pull the next
// index from a shared counter, so result placement (by index) is
// independent of which worker runs which cell.
func fanOut(jobs, n int, cell func(int)) []*cellPanic {
	if n <= 0 {
		return nil
	}
	panics := make([]*cellPanic, n)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = &cellPanic{value: r}
			}
		}()
		cell(i)
	}
	workers := Workers(jobs, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return panics
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return panics
}
