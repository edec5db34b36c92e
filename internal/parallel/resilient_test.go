package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep replaces the backoff wait in tests so retries are instant
// while still honoring cancellation.
func noSleep(ctx context.Context, d time.Duration) bool { return ctx.Err() == nil }

func retryRun(jobs, attempts int) Run {
	return Run{
		Jobs:  jobs,
		Retry: RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, sleep: noSleep},
	}
}

func TestIsTransient(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  error
		want bool
	}{
		{base, false},
		{Transient(base), true},
		{fmt.Errorf("wrapped: %w", Transient(base)), true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("cell: %w", context.DeadlineExceeded), true},
		{context.Canceled, false},
		{&PanicError{Value: "v"}, false},
		{selfTransient{}, true},
		{fmt.Errorf("wrapped: %w", selfTransient{}), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}

// selfTransient marks itself retryable via the decoupled
// `Transient() bool` marker (the chaos injector's idiom).
type selfTransient struct{}

func (selfTransient) Error() string   { return "self-transient" }
func (selfTransient) Transient() bool { return true }

// TestRetryEventuallySucceeds: cells fail transiently until their
// attempt budget's last try, then succeed; all results land.
func TestRetryEventuallySucceeds(t *testing.T) {
	const n = 16
	var calls [n]int32
	out, fails, err := MapResilient(retryRun(4, 3), n, func(ctx context.Context, i, attempt int) (int, error) {
		atomic.AddInt32(&calls[i], 1)
		if attempt < 3 {
			return 0, Transient(fmt.Errorf("cell %d attempt %d", i, attempt))
		}
		return i * 10, nil
	})
	if err != nil || len(fails) != 0 {
		t.Fatalf("err=%v fails=%v", err, fails)
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d", i, v)
		}
		if calls[i] != 3 {
			t.Fatalf("cell %d ran %d times, want 3", i, calls[i])
		}
	}
}

// TestRetryExhaustionFatal: a cell that stays transient beyond
// MaxAttempts fails the grid (no quarantine).
func TestRetryExhaustionFatal(t *testing.T) {
	_, fails, err := MapResilient(retryRun(2, 3), 8, func(ctx context.Context, i, attempt int) (int, error) {
		if i == 5 {
			return 0, Transient(errors.New("always failing"))
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "always failing") {
		t.Fatalf("err = %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected quarantine manifest: %v", fails)
	}
}

// TestFatalErrorNotRetried: a non-transient error consumes exactly one
// attempt.
func TestFatalErrorNotRetried(t *testing.T) {
	var calls int32
	_, _, err := MapResilient(retryRun(1, 5), 1, func(ctx context.Context, i, attempt int) (int, error) {
		atomic.AddInt32(&calls, 1)
		return 0, errors.New("fatal")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// TestPanicBecomesErrorAndIsNotRetried: a panicking cell surfaces as a
// *PanicError after one attempt; panics are defects, not transients.
func TestPanicBecomesErrorAndIsNotRetried(t *testing.T) {
	var calls int32
	_, _, err := MapResilient(retryRun(2, 4), 4, func(ctx context.Context, i, attempt int) (int, error) {
		if i == 2 {
			atomic.AddInt32(&calls, 1)
			panic("kaboom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("panicking cell ran %d times, want 1", calls)
	}
}

// TestCancellationPanicSentinel: a panic whose value is a cancellation
// error (the sim package's cooperative-abort sentinel) surfaces as that
// error, not as a PanicError.
func TestCancellationPanicSentinel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := Run{Jobs: 1, Ctx: ctx}
	_, _, err := MapResilient(run, 1, func(ctx context.Context, i, attempt int) (int, error) {
		panic(fmt.Errorf("sim: run canceled: %w", context.Canceled))
	})
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("cancellation sentinel classified as panic: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
}

// TestQuarantineManifest: partial-results mode completes the grid,
// reports failures in index order, and leaves zero values at failed
// indices.
func TestQuarantineManifest(t *testing.T) {
	run := retryRun(4, 2)
	run.Quarantine = true
	out, fails, err := MapResilient(run, 10, func(ctx context.Context, i, attempt int) (int, error) {
		switch i {
		case 3:
			panic("defect")
		case 7:
			return 0, Transient(errors.New("never recovers"))
		}
		return i + 1, nil
	})
	if err != nil {
		t.Fatalf("quarantine mode returned grid error: %v", err)
	}
	if len(fails) != 2 {
		t.Fatalf("manifest: %v", fails)
	}
	if fails[0].Index != 3 || !fails[0].Panicked || fails[0].Attempts != 1 {
		t.Fatalf("fails[0] = %+v", fails[0])
	}
	if fails[1].Index != 7 || fails[1].Panicked || fails[1].Attempts != 2 {
		t.Fatalf("fails[1] = %+v", fails[1])
	}
	for i, v := range out {
		want := i + 1
		if i == 3 || i == 7 {
			want = 0
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestCellTimeoutRetriesThenQuarantines: an attempt that overruns its
// deadline reports context.DeadlineExceeded (retryable); a cell that
// always overruns exhausts its budget and quarantines as timed out.
func TestCellTimeoutRetriesThenQuarantines(t *testing.T) {
	run := Run{
		Jobs:        2,
		CellTimeout: 5 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 2, sleep: noSleep},
		Quarantine:  true,
	}
	var slowTries int32
	out, fails, err := MapResilient(run, 4, func(ctx context.Context, i, attempt int) (int, error) {
		if i == 1 {
			atomic.AddInt32(&slowTries, 1)
			<-ctx.Done() // overrun until the deadline fires
			return 0, ctx.Err()
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(fails) != 1 || fails[0].Index != 1 || !fails[0].TimedOut || fails[0].Attempts != 2 {
		t.Fatalf("manifest: %+v", fails)
	}
	if got := atomic.LoadInt32(&slowTries); got != 2 {
		t.Fatalf("slow cell tried %d times, want 2", got)
	}
	if out[0] != 0 || out[2] != 2 || out[3] != 3 {
		t.Fatalf("out = %v", out)
	}
}

// TestFatalSkipsHigherQueuedCells: under serial execution a fatal
// error in an early cell prevents every later cell from running at
// all, exactly like a loop that stops at its first failure.
func TestFatalSkipsHigherQueuedCells(t *testing.T) {
	var ran int32
	run := Run{Jobs: 1}
	_, _, err := MapResilient(run, 100, func(ctx context.Context, i, attempt int) (int, error) {
		atomic.AddInt32(&ran, 1)
		if i == 2 {
			return 0, errors.New("early fatal")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "early fatal") {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt32(&ran); got != 3 {
		t.Fatalf("%d cells ran, want 3 (cells after the fatal one must be skipped)", got)
	}
}

// TestFatalErrorIsSerialLoopError pins the fatal-error rule: a fatal
// cell skips only unstarted cells above it and cancels nothing in
// flight, so a slow low-index failure still beats a fast high-index
// one and the grid reports what a serial loop would, at any worker
// count. Cell 3 fails after 50 ms unless its context is canceled first
// (as a simulation cell honouring Config.Cancel does); cell 17 fails
// at once.
func TestFatalErrorIsSerialLoopError(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		_, _, err := MapResilient(Run{Jobs: jobs, Label: "g"}, 20, func(ctx context.Context, i, attempt int) (int, error) {
			switch i {
			case 3:
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(50 * time.Millisecond):
					return 0, errors.New("cell 3 failed")
				}
			case 17:
				return 0, errors.New("cell 17 failed")
			}
			return i, nil
		})
		if err == nil || err.Error() != "g[3]: cell 3 failed" {
			t.Fatalf("jobs=%d: err = %v, want g[3]: cell 3 failed", jobs, err)
		}
	}
}

// TestParentCancellationSkips: a pre-canceled parent context yields the
// parent's error and runs nothing.
func TestParentCancellationSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	_, _, err := MapResilient(Run{Jobs: 4, Ctx: ctx}, 50, func(ctx context.Context, i, attempt int) (int, error) {
		atomic.AddInt32(&ran, 1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d cells ran under a canceled parent", ran)
	}
}

// TestBackoffDeterministic: the backoff schedule depends only on
// (seed, index, attempt) — never on scheduling — grows exponentially,
// and respects the cap.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 7}
	for index := 0; index < 4; index++ {
		for attempt := 1; attempt <= 6; attempt++ {
			d1 := p.Backoff(index, attempt)
			d2 := p.Backoff(index, attempt)
			if d1 != d2 {
				t.Fatalf("Backoff(%d, %d) nondeterministic: %v vs %v", index, attempt, d1, d2)
			}
			// Equal-jitter bounds: [full/2, full) for the capped
			// exponential full delay.
			full := 10 * time.Millisecond << (attempt - 1)
			if full > 80*time.Millisecond {
				full = 80 * time.Millisecond
			}
			if d1 < full/2 || d1 >= full {
				t.Fatalf("Backoff(%d, %d) = %v outside [%v, %v)", index, attempt, d1, full/2, full)
			}
		}
	}
	if (RetryPolicy{}).Backoff(0, 1) != 0 {
		t.Fatal("zero policy must not wait")
	}
	if p.Backoff(0, 1) == p.Backoff(1, 1) && p.Backoff(0, 2) == p.Backoff(1, 2) {
		t.Fatal("jitter streams identical across indices")
	}
}

// TestResilientDeterminismUnderRetries: with scheduling-dependent
// transient failures resolved by retries, results are still placed by
// index and identical at any worker count.
func TestResilientDeterminismUnderRetries(t *testing.T) {
	compute := func(jobs int) []int {
		var mu sync.Mutex
		failed := map[int]bool{}
		out, fails, err := MapResilient(retryRun(jobs, 3), 64, func(ctx context.Context, i, attempt int) (int, error) {
			mu.Lock()
			first := !failed[i]
			failed[i] = true
			mu.Unlock()
			if first && i%3 == 0 {
				return 0, Transient(fmt.Errorf("first try of %d", i))
			}
			return i * i, nil
		})
		if err != nil || len(fails) != 0 {
			t.Fatalf("jobs=%d err=%v fails=%v", jobs, err, fails)
		}
		return out
	}
	want := compute(1)
	for _, jobs := range []int{2, 4, 8} {
		if got := compute(jobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d results differ", jobs)
		}
	}
}

// TestResilienceObserverEvents: retry and quarantine events reach a
// Progress sink that implements ResilienceObserver.
func TestResilienceObserverEvents(t *testing.T) {
	obs := &recordingObserver{}
	run := retryRun(2, 2)
	run.Quarantine = true
	run.Progress = obs
	run.Label = "g"
	_, fails, err := MapResilient(run, 6, func(ctx context.Context, i, attempt int) (int, error) {
		if i == 4 {
			return 0, Transient(errors.New("always"))
		}
		return i, nil
	})
	if err != nil || len(fails) != 1 {
		t.Fatalf("err=%v fails=%v", err, fails)
	}
	if got := atomic.LoadInt32(&obs.retries); got != 1 {
		t.Fatalf("retries observed = %d, want 1", got)
	}
	if got := atomic.LoadInt32(&obs.quarantined); got != 1 {
		t.Fatalf("quarantines observed = %d, want 1", got)
	}
	NotifyReplayed(obs, "g", 0)
	NotifyReplayed(nil, "g", 0) // no-op on nil/plain sinks
	if got := atomic.LoadInt32(&obs.replayed); got != 1 {
		t.Fatalf("replays observed = %d, want 1", got)
	}
}

type recordingObserver struct {
	retries, quarantined, replayed int32
}

func (r *recordingObserver) GridStart(string, int)               {}
func (r *recordingObserver) GridCell(string, int, time.Duration) {}
func (r *recordingObserver) GridEnd(string)                      {}
func (r *recordingObserver) CellRetry(string, int, int, time.Duration, error) {
	atomic.AddInt32(&r.retries, 1)
}
func (r *recordingObserver) CellQuarantined(string, int, int, error) {
	atomic.AddInt32(&r.quarantined, 1)
}
func (r *recordingObserver) CellReplayed(string, int) {
	atomic.AddInt32(&r.replayed, 1)
}

// TestFailureLog exercises the concurrent accumulation API.
func TestFailureLog(t *testing.T) {
	var l FailureLog
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l.Add(CellFailure{Grid: "g", Index: g})
		}(g)
	}
	wg.Wait()
	if l.Len() != 8 || len(l.All()) != 8 {
		t.Fatalf("len = %d", l.Len())
	}
	l.Add() // empty add is a no-op
	if l.Len() != 8 {
		t.Fatal("empty Add changed the log")
	}
}
