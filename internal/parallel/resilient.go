// Resilient grid execution: context plumbing, per-cell deadlines,
// bounded retry with deterministic exponential backoff, and failure
// quarantine. MapResilient is the one engine behind the experiment
// grids; plain Map remains the fan-out for cells that cannot fail.
//
// The determinism contract extends to failures (DESIGN.md §11):
//
//   - Results are still placed by index, never by completion order.
//   - Retry backoff jitter is drawn from a private stream keyed by
//     (policy seed, cell index, attempt), so it never depends on
//     goroutine scheduling.
//   - The quarantine manifest is reported in index order.
//   - A fatal failure skips only unstarted cells above it, so every
//     lower cell runs and the reported error is the lowest-index
//     failure that is not a mere consequence of cancellation — the
//     one a serial loop would report, at any worker count.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compresso/internal/rng"
)

// IsTransient reports whether err is retryable under a RetryPolicy:
// an error in its chain self-reports via a `Transient() bool` method
// (the decoupled marker other packages use — e.g. the chaos injector's
// transient failures), or it is a per-cell deadline expiry.
func IsTransient(err error) bool {
	var m interface{ Transient() bool }
	if errors.As(err, &m) && m.Transient() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// PanicError carries a recovered cell panic through the resilient
// error path (quarantine manifest, retry classification) instead of
// unwinding the worker. Panics are never retried — a panicking cell is
// a defect, not a transient condition.
type PanicError struct{ Value any }

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("cell panicked: %v", e.Value) }

// RetryPolicy bounds re-attempts of transiently failing cells.
// The zero value runs every cell exactly once.
type RetryPolicy struct {
	// MaxAttempts is the total tries per cell, including the first
	// (<= 1 disables retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (<= 0 retries immediately).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (<= 0 means uncapped).
	MaxBackoff time.Duration
	// Seed drives the deterministic backoff jitter stream.
	Seed uint64

	// sleep is a test hook; nil uses a context-aware timer sleep.
	sleep func(ctx context.Context, d time.Duration) bool
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the deterministic delay before retry number attempt
// (1-based: the wait after the attempt-th try of cell index failed).
// The schedule is exponential from BaseBackoff, capped at MaxBackoff,
// with equal-jitter in [d/2, d) drawn from a stream keyed by
// (Seed, index, attempt) — identical under any goroutine scheduling.
func (p RetryPolicy) Backoff(index, attempt int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		return 0
	}
	for a := 1; a < attempt; a++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
		if d <= 0 { // overflow guard
			d = p.MaxBackoff
			if d <= 0 {
				d = time.Hour
			}
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	r := rng.New(p.Seed ^ (uint64(index)*0x9e3779b97f4a7c15 + uint64(attempt)))
	half := d / 2
	return half + time.Duration(r.Float64()*float64(d-half))
}

// sleepCtx waits for d or until ctx is done; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run configures one resilient grid execution (MapResilient).
type Run struct {
	// Jobs bounds the worker goroutines (<= 0 means GOMAXPROCS).
	Jobs int
	// Ctx cancels the grid: queued cells are skipped and each attempt's
	// context (handed to the cell function) is canceled. Nil means
	// Background (never canceled from outside).
	Ctx context.Context
	// CellTimeout is the per-attempt deadline (0 disables). An attempt
	// that overruns is abandoned — its goroutine keeps running until the
	// cell function observes its context, but the worker moves on and
	// the attempt reports context.DeadlineExceeded (retryable).
	CellTimeout time.Duration
	// Retry bounds re-attempts of transiently failing cells.
	Retry RetryPolicy
	// Quarantine switches to partial-results mode: cells that exhaust
	// their attempts are recorded in the failure manifest (zero value at
	// their index) and the grid completes instead of aborting. Without
	// it a cell that exhausts its attempts fails the grid: unstarted
	// cells above the lowest failed index are skipped, while in-flight
	// cells run to completion.
	Quarantine bool
	// Progress observes the grid (may be nil). Sinks that also
	// implement ResilienceObserver additionally see retries and
	// quarantines.
	Progress Progress
	// Label names the grid for progress and the failure manifest.
	Label string
}

// CellFailure is one quarantined cell in a failure manifest.
type CellFailure struct {
	Grid     string `json:"grid"`
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
	Panicked bool   `json:"panicked,omitempty"`
	TimedOut bool   `json:"timed_out,omitempty"`
}

// String renders the failure compactly.
func (f CellFailure) String() string {
	return fmt.Sprintf("%s[%d] after %d attempt(s): %s", f.Grid, f.Index, f.Attempts, f.Error)
}

// ResilienceObserver is an optional Progress extension: sinks that
// implement it see per-cell retry, quarantine and journal-replay
// events. Like Progress, it is display/telemetry only and is called
// from worker goroutines — implementations must be concurrency-safe
// and must not influence results.
type ResilienceObserver interface {
	// CellRetry fires before the backoff wait of retry number attempt.
	CellRetry(label string, index, attempt int, backoff time.Duration, err error)
	// CellQuarantined fires when a cell exhausts its attempts in
	// quarantine mode.
	CellQuarantined(label string, index, attempts int, err error)
	// CellReplayed fires when a journaled cell is served from the run
	// journal instead of executing (emitted by the experiments layer).
	CellReplayed(label string, index int)
}

// NotifyReplayed reports a journal replay to p when it observes
// resilience events (no-op otherwise).
func NotifyReplayed(p Progress, label string, index int) {
	if o, ok := p.(ResilienceObserver); ok {
		o.CellReplayed(label, index)
	}
}

// FailureLog accumulates quarantined-cell failures across grids; it is
// safe for concurrent use.
type FailureLog struct {
	mu   sync.Mutex
	list []CellFailure
}

// Add appends failures to the log.
func (l *FailureLog) Add(fs ...CellFailure) {
	if len(fs) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list = append(l.list, fs...)
}

// Len returns the number of recorded failures.
func (l *FailureLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.list)
}

// All returns a copy of the recorded failures in insertion order
// (grids append their manifests whole, in index order).
func (l *FailureLog) All() []CellFailure {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]CellFailure, len(l.list))
	copy(out, l.list)
	return out
}

type attemptOut[T any] struct {
	v   T
	err error
}

// runAttempt executes one try of cell index. Panics become
// *PanicError, except panic values that are themselves
// cancellation/deadline errors (the cooperative-abort sentinel a
// simulation loop throws when its Config.Cancel context fires), which
// surface as that error. With a timeout, the attempt runs on its own
// goroutine so an overrun can be abandoned; without one it runs
// directly on the worker.
func runAttempt[T any](ctx context.Context, timeout time.Duration, index, attempt int,
	fn func(ctx context.Context, index, attempt int) (T, error)) (T, error) {

	call := func(actx context.Context) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok &&
					(errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
					err = e
					return
				}
				err = &PanicError{Value: r}
			}
		}()
		return fn(actx, index, attempt)
	}

	if timeout <= 0 {
		return call(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ch := make(chan attemptOut[T], 1)
	go func() {
		v, err := call(actx)
		ch <- attemptOut[T]{v: v, err: err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-actx.Done():
		var zero T
		return zero, actx.Err()
	}
}

// MapResilient runs fn over n cells under run's resilience policy and
// returns the results in index order, the quarantined failures (index
// order; always nil unless run.Quarantine), and the grid error.
//
// Each attempt receives a context derived from run.Ctx (plus the
// per-attempt deadline when CellTimeout is set) and its 1-based
// attempt number. Failing attempts retry under run.Retry while
// IsTransient(err); exhausted cells either quarantine (partial-results
// mode) or fail the grid, reported as "<label>[<index>]: <err>".
// Cells not yet started when the grid is canceled, or that lie above
// the lowest fatally failed index, are skipped and keep their zero
// value.
func MapResilient[T any](run Run, n int, fn func(ctx context.Context, index, attempt int) (T, error)) ([]T, []CellFailure, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, nil, nil
	}
	ctx := run.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	obsv, _ := run.Progress.(ResilienceObserver)
	sleep := run.Retry.sleep
	if sleep == nil {
		sleep = sleepCtx
	}

	fail := make([]*CellFailure, n)
	fatal := make([]error, n)
	var skipped atomic.Bool
	// lowestFatal is the lowest fatally failed index so far (n while
	// none has). Workers claim cells in index order, so every cell
	// below it has started and will finish.
	var lowestFatal atomic.Int64
	lowestFatal.Store(int64(n))

	if run.Progress != nil {
		run.Progress.GridStart(run.Label, n)
		defer run.Progress.GridEnd(run.Label)
	}

	cell := func(i int) {
		if int64(i) > lowestFatal.Load() {
			return
		}
		if ctx.Err() != nil {
			skipped.Store(true)
			return
		}
		var t0 time.Time
		if run.Progress != nil {
			t0 = time.Now()
		}
		attempts := run.Retry.attempts()
		tried := 0
		var lastErr error
		for attempt := 1; attempt <= attempts; attempt++ {
			v, err := runAttempt(ctx, run.CellTimeout, i, attempt, fn)
			tried = attempt
			if err == nil {
				out[i] = v
				if run.Progress != nil {
					run.Progress.GridCell(run.Label, i, time.Since(t0))
				}
				return
			}
			lastErr = err
			if attempt < attempts && IsTransient(err) && ctx.Err() == nil {
				d := run.Retry.Backoff(i, attempt)
				if obsv != nil {
					obsv.CellRetry(run.Label, i, attempt, d, err)
				}
				if sleep(ctx, d) {
					continue
				}
			}
			break
		}
		if run.Progress != nil {
			run.Progress.GridCell(run.Label, i, time.Since(t0))
		}
		if run.Quarantine {
			var pe *PanicError
			fail[i] = &CellFailure{
				Grid: run.Label, Index: i, Attempts: tried, Error: lastErr.Error(),
				Panicked: errors.As(lastErr, &pe),
				TimedOut: errors.Is(lastErr, context.DeadlineExceeded),
			}
			if obsv != nil {
				obsv.CellQuarantined(run.Label, i, tried, lastErr)
			}
			return
		}
		fatal[i] = fmt.Errorf("%s[%d]: %w", run.Label, i, lastErr)
		for cur := lowestFatal.Load(); int64(i) < cur; cur = lowestFatal.Load() {
			if lowestFatal.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}

	fanOut(run.Jobs, n, cell)

	// Deterministic error selection: the lowest-index fatal error that
	// is not itself a cancellation consequence; then the parent
	// context's error when cells were skipped or aborted by it; then
	// the lowest-index cancellation error.
	var firstCancel error
	for _, fe := range fatal {
		if fe == nil {
			continue
		}
		if errors.Is(fe, context.Canceled) {
			if firstCancel == nil {
				firstCancel = fe
			}
			continue
		}
		return out, nil, fe
	}
	var failures []CellFailure
	for _, f := range fail {
		if f != nil {
			failures = append(failures, *f)
		}
	}
	if err := ctx.Err(); err != nil && (skipped.Load() || firstCancel != nil) {
		return out, failures, err
	}
	return out, failures, firstCancel
}
