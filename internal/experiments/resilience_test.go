package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"compresso/internal/faults"
	"compresso/internal/journal"
	"compresso/internal/parallel"
)

// readArtifacts returns name -> bytes for every JSON artifact in dir.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == journal.FileName {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}

func sameArtifacts(t *testing.T, tag string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts, want %d", tag, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: artifact %s missing", tag, name)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: artifact %s differs", tag, name)
		}
	}
}

// cancelAfter is a Progress sink that cancels a context after the n-th
// completed cell — the in-process stand-in for an interrupt (or crash)
// landing at an arbitrary point of the sweep.
type cancelAfter struct {
	cancel context.CancelFunc
	after  int32
	seen   int32
}

func (c *cancelAfter) GridStart(string, int) {}
func (c *cancelAfter) GridEnd(string)        {}
func (c *cancelAfter) GridCell(string, int, time.Duration) {
	if atomic.AddInt32(&c.seen, 1) == c.after {
		c.cancel()
	}
}

// TestGridPanicNamesItsCell: a panicking grid cell fails the
// experiment with an error that names the grid and the cell index and
// still unwraps to the *parallel.PanicError.
func TestGridPanicNamesItsCell(t *testing.T) {
	register("test-grid-panic", "one grid, one panicking cell", func(opt Options) (any, error) {
		grid(opt, "panicky", 4, func(_ context.Context, i int) int {
			if i == 2 {
				panic("boom")
			}
			return i
		})
		return nil, nil
	})
	defer delete(registry, "test-grid-panic")
	for _, jobs := range []int{1, 4} {
		err := Run("test-grid-panic", Options{Out: io.Discard, Quick: true, Jobs: jobs})
		if err == nil || !strings.Contains(err.Error(), "panicky[2]") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("jobs=%d: err = %v, want panicky[2] ... boom", jobs, err)
		}
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: %v does not unwrap to *parallel.PanicError", jobs, err)
		}
	}
}

// TestGridFatalErrorIsSerialLoopError: under a run context (as every
// CLI sweep has) a fast failure at a high index neither cancels nor
// outranks a slower failure at a lower index, so the experiment error
// is the one a serial loop would report, at any worker count.
func TestGridFatalErrorIsSerialLoopError(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		opt := Options{Jobs: jobs, Ctx: context.Background()}
		_, err := gridErr(opt, "g", 20, func(ctx context.Context, i int) (int, error) {
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
		if err == nil || !strings.Contains(err.Error(), "cell 3 failed") {
			t.Fatalf("jobs=%d: err = %v, want cell 3 failed", jobs, err)
		}
	}
}

// TestJournalResumeAfterCancel pins the tentpole contract: a journaled
// run killed after an arbitrary number of cells, then resumed, produces
// byte-identical text and artifacts to an uninterrupted run — at any
// worker count.
func TestJournalResumeAfterCancel(t *testing.T) {
	refDir := t.TempDir()
	resetMemos()
	var ref bytes.Buffer
	if err := Run("fig2", Options{Out: &ref, Quick: true, Seed: 42, Jobs: 1, JSONDir: refDir}); err != nil {
		t.Fatal(err)
	}
	refArts := readArtifacts(t, refDir)

	kills := []int32{1, 7, 29}
	jobsList := []int{1, 4}
	if raceEnabled {
		kills = []int32{7}
	}
	for _, jobs := range jobsList {
		for _, k := range kills {
			dir := t.TempDir()

			// Interrupted journaled run: cancel lands after the k-th cell.
			resetMemos()
			ctx, cancel := context.WithCancel(context.Background())
			j, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ierr := Run("fig2", Options{
				Out: io.Discard, Quick: true, Seed: 42, Jobs: jobs,
				Ctx: ctx, Journal: j,
				Progress: &cancelAfter{cancel: cancel, after: k},
			})
			cancel()
			j.Close()
			recorded := j.Stats().Recorded
			// With several workers the cancel can land after every cell has
			// already started, in which case the run completes cleanly; any
			// other nil error means the cut never happened.
			if ierr == nil {
				if recorded != 30 {
					t.Fatalf("jobs=%d k=%d: run finished cleanly with only %d cells journaled", jobs, k, recorded)
				}
			} else if !errors.Is(ierr, context.Canceled) {
				t.Fatalf("jobs=%d k=%d: interrupted run error = %v, want context.Canceled", jobs, k, ierr)
			}
			if recorded < int(k) {
				t.Fatalf("jobs=%d k=%d: only %d cells journaled before the cut", jobs, k, recorded)
			}

			// Resume: replay the journal, execute the remainder.
			resetMemos()
			j2, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if j2.Stats().Loaded != recorded {
				t.Fatalf("jobs=%d k=%d: loaded %d of %d journaled cells", jobs, k, j2.Stats().Loaded, recorded)
			}
			outDir := t.TempDir()
			var out bytes.Buffer
			if err := Run("fig2", Options{
				Out: &out, Quick: true, Seed: 42, Jobs: jobs,
				Ctx: context.Background(), Journal: j2, JSONDir: outDir,
			}); err != nil {
				t.Fatalf("jobs=%d k=%d: resume failed: %v", jobs, k, err)
			}
			st := j2.Stats()
			j2.Close()
			if st.Replayed == 0 {
				t.Fatalf("jobs=%d k=%d: resume executed everything from scratch", jobs, k)
			}

			if out.String() != ref.String() {
				t.Fatalf("jobs=%d k=%d: resumed output differs from uninterrupted run", jobs, k)
			}
			sameArtifacts(t, "resume", readArtifacts(t, outDir), refArts)
		}
	}
}

// TestJournalDoesNotReplayAcrossConfigs: the cell content-hash keys a
// journal to its (fidelity, seed, row type) configuration, so resuming
// under a different seed recomputes instead of replaying stale rows.
func TestJournalDoesNotReplayAcrossConfigs(t *testing.T) {
	dir := t.TempDir()
	resetMemos()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Run("fig2", Options{Out: io.Discard, Quick: true, Seed: 42, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	resetMemos()
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := Run("fig2", Options{Out: io.Discard, Quick: true, Seed: 7, SeedSet: true, Journal: j2}); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Replayed != 0 {
		t.Fatalf("seed 7 replayed %d cells journaled under seed 42", st.Replayed)
	}
}

func TestCellHashDiscriminates(t *testing.T) {
	base := Options{Quick: true, Seed: 42}
	h := cellHash[Fig2Row](base)
	if h != cellHash[Fig2Row](base) {
		t.Fatal("cellHash not deterministic")
	}
	if h == cellHash[Fig7Row](base) {
		t.Fatal("cellHash ignores the row type")
	}
	if h == cellHash[Fig2Row](Options{Quick: false, Seed: 42}) {
		t.Fatal("cellHash ignores fidelity")
	}
	if h == cellHash[Fig2Row](Options{Quick: true, Seed: 7, SeedSet: true}) {
		t.Fatal("cellHash ignores the seed")
	}
}

// TestChaosDeterministicAcrossJobs: chaos fates key off (label, index,
// attempt), so a chaos-disrupted, retry-healed run is byte-identical at
// any worker count.
func TestChaosDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) (string, error) {
		resetMemos()
		var buf bytes.Buffer
		err := Run("fig2", Options{
			Out: &buf, Quick: true, Seed: 42, Jobs: jobs,
			Chaos: faults.NewChaos(faults.ChaosConfig{
				Seed: 11, Rate: chaosRate(faults.CellTransient, 0.2), Delay: time.Millisecond,
			}),
			Retry: parallel.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond, Seed: 42},
		})
		return buf.String(), err
	}
	out1, err1 := run(1)
	out8, err8 := run(8)
	if (err1 == nil) != (err8 == nil) {
		t.Fatalf("fate differs across jobs: %v vs %v", err1, err8)
	}
	if err1 != nil && err1.Error() != err8.Error() {
		t.Fatalf("error differs across jobs: %q vs %q", err1, err8)
	}
	if out1 != out8 {
		t.Fatal("chaos-disrupted output differs across jobs")
	}
}

func chaosRate(site faults.ChaosSite, p float64) [faults.NChaosSites]float64 {
	var r [faults.NChaosSites]float64
	r[site] = p
	return r
}

// TestChaosQuarantineConvergence is the in-process chaos harness loop:
// repeated journaled quarantine passes under seed-varied chaos converge
// (surviving cells accumulate in the journal, replays bypass chaos)
// to a pass with zero failures whose output is byte-identical to an
// undisrupted run.
func TestChaosQuarantineConvergence(t *testing.T) {
	if raceEnabled {
		t.Skip("multi-pass sweep is too slow under the race detector")
	}
	resetMemos()
	var ref bytes.Buffer
	if err := Run("fig2", Options{Out: &ref, Quick: true, Seed: 42, Jobs: 4}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rate := chaosRate(faults.CellPanic, 0.15)
	rate[faults.CellTransient] = 0.15
	const maxPasses = 12
	for pass := 1; ; pass++ {
		if pass > maxPasses {
			t.Fatalf("no clean pass after %d chaos passes", maxPasses)
		}
		resetMemos()
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		failures := &parallel.FailureLog{}
		var out bytes.Buffer
		err = Run("fig2", Options{
			Out: &out, Quick: true, Seed: 42, Jobs: 4,
			Journal: j, Quarantine: true, Failures: failures,
			Chaos: faults.NewChaos(faults.ChaosConfig{
				Seed: uint64(pass), Rate: rate, Delay: time.Millisecond,
			}),
			Retry: parallel.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond, Seed: 42},
		})
		j.Close()
		if err != nil {
			t.Fatalf("pass %d: quarantine run errored: %v", pass, err)
		}
		if failures.Len() > 0 {
			for _, f := range failures.All() {
				if !strings.Contains(f.Error, "chaos:") {
					t.Fatalf("pass %d: non-chaos failure quarantined: %+v", pass, f)
				}
			}
			continue
		}
		if out.String() != ref.String() {
			t.Fatalf("pass %d: converged output differs from undisrupted run", pass)
		}
		return
	}
}

// TestRunAllSkipsOnCanceledContext: a canceled context fails every
// experiment fast instead of running the sweep.
func TestRunAllSkipsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resetMemos()
	defer resetMemos()
	start := time.Now()
	err := RunAll(Options{Out: io.Discard, Quick: true, Seed: 42, Jobs: 4, Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("canceled RunAll still took %v", elapsed)
	}
}
