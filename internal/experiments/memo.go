package experiments

import (
	"context"
	"sync"
)

// memo is the deterministic singleflight cache behind everything the
// sweep shares: the expensive shared grids (fig10's rows feed fig10a,
// fig10b and fig12; fig11's feed fig11a and fig11b), keyed by the
// (quick, seed) configuration, and the single-core run memo (run.go),
// keyed by the resolved simulation config. Under a parallel RunAll
// several callers can want the same key at once: the first computes
// it, concurrent callers wait for the same entry and share the result.
// The computations are deterministic, so a cached value is
// byte-for-byte what the caller would have computed itself.
//
// Publish rule (DESIGN.md §7, §13): only a computation that returns
// normally with a nil error publishes. One that panics, is canceled or
// returns an error publishes nothing and reports to its own caller
// only; a waiter then runs the computation itself, so every caller
// sees the error its own computation raises and a fatal error's text
// does not depend on which caller happened to compute first.
type memo[K comparable, T any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[T]
}

type memoCell[T any] struct {
	done chan struct{} // closed when the computation finishes either way
	ok   bool          // set before done closes: val is published
	val  T
}

// get returns the cached value for key, computing it when no finished
// or in-flight entry exists. A caller that finds the key in flight
// waits on its own ctx (nil means never canceled): when ctx fires
// first, get returns ctx's error without waiting further.
func (c *memo[K, T]) get(ctx context.Context, key K, compute func() (T, error)) (T, error) {
	for {
		c.mu.Lock()
		if c.m == nil {
			c.m = map[K]*memoCell[T]{}
		}
		cell, ok := c.m[key]
		if !ok {
			cell = &memoCell[T]{done: make(chan struct{})}
			c.m[key] = cell
			c.mu.Unlock()
			return c.fill(key, cell, compute)
		}
		c.mu.Unlock()
		var canceled <-chan struct{}
		if ctx != nil {
			canceled = ctx.Done()
		}
		select {
		case <-cell.done:
			if cell.ok {
				return cell.val, nil
			}
			// The computation failed and withdrew its entry: run it here.
		case <-canceled:
			var zero T
			return zero, ctx.Err()
		}
	}
}

// fill runs compute for a freshly registered cell. On any outcome but
// success the cell is withdrawn before waiters wake, and a panic keeps
// unwinding to this caller with its original value.
func (c *memo[K, T]) fill(key K, cell *memoCell[T], compute func() (T, error)) (T, error) {
	defer func() {
		if !cell.ok {
			c.mu.Lock()
			if c.m[key] == cell {
				delete(c.m, key)
			}
			c.mu.Unlock()
		}
		close(cell.done)
	}()
	v, err := compute()
	if err == nil {
		cell.val, cell.ok = v, true
	}
	return v, err
}

// reset drops every cached entry (used by the determinism tests to
// force recomputation).
func (c *memo[K, T]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// resetMemos clears every package-level cache.
// TestResetMemosClearsEveryMemo fails when a new one is left out.
func resetMemos() {
	fig10Cache.reset()
	fig11Cache.reset()
	backendsCache.reset()
	fleetSweepCache.reset()
	fleetPolicyCache.reset()
	runCache.reset()
}
