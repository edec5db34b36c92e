package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"compresso/internal/sim"
)

// memo is the deterministic singleflight cache behind everything the
// sweep shares: the expensive shared grids (fig10's rows feed fig10a,
// fig10b and fig12; fig11's feed fig11a and fig11b), keyed by the
// (quick, seed) configuration, the single-core run memo (run.go),
// keyed by the resolved simulation config, and the capacity cell memo
// (tab2.go), keyed by the resolved profiles and capacity config. Under
// a parallel RunAll several callers can want the same key at once: the
// first computes it, concurrent callers wait for the same entry and
// share the result.
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
	vals, err := c.getMany(ctx, []K{key}, func([]int) ([]T, error) {
		v, err := compute()
		return []T{v}, err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return vals[0], nil
}

// getMany is get for several keys at once, the run memo's multi-claim.
// It first waits for every key another caller holds in flight, holding
// no claim of its own meanwhile, so two callers can never wait on each
// other. Once none is in flight, it registers every key that has no
// finished entry as in flight and computes all of them in one call of
// compute, which receives their indices in keys, ascending, and returns
// their values in that order. The publish rule is get's, for the whole
// claim: a compute that returns normally with a nil error publishes
// every value, and one that panics, is canceled or errs withdraws every
// claim, so a waiter on any of them claims it itself. A key repeated in
// keys is computed once.
func (c *memo[K, T]) getMany(ctx context.Context, keys []K, compute func(idx []int) ([]T, error)) ([]T, error) {
	out := make([]T, len(keys))
	first := make([]int, len(keys)) // index of each key's first occurrence
	seen := make(map[K]int, len(keys))
	var pending []int
	for i, k := range keys {
		if j, ok := seen[k]; ok {
			first[i] = j
			continue
		}
		seen[k], first[i] = i, i
		pending = append(pending, i)
	}
	var canceled <-chan struct{}
	if ctx != nil {
		canceled = ctx.Done()
	}
	for len(pending) > 0 {
		var missing, waitIdx []int
		var waits []*memoCell[T]
		c.mu.Lock()
		if c.m == nil {
			c.m = map[K]*memoCell[T]{}
		}
		for _, i := range pending {
			cell, ok := c.m[keys[i]]
			if !ok {
				missing = append(missing, i)
				continue
			}
			// A failed computation withdraws its cell before closing it,
			// so a closed cell still in the map is published.
			select {
			case <-cell.done:
				out[i] = cell.val
			default:
				waitIdx, waits = append(waitIdx, i), append(waits, cell)
			}
		}
		if len(waits) == 0 {
			cells := make([]*memoCell[T], len(missing))
			for k, i := range missing {
				cells[k] = &memoCell[T]{done: make(chan struct{})}
				c.m[keys[i]] = cells[k]
			}
			c.mu.Unlock()
			if len(missing) > 0 {
				vals, err := c.fill(keys, missing, cells, compute)
				if err != nil {
					return nil, err
				}
				for k, i := range missing {
					out[i] = vals[k]
				}
			}
			break
		}
		c.mu.Unlock()
		pending = missing
		for k, cell := range waits {
			select {
			case <-cell.done:
				if cell.ok {
					out[waitIdx[k]] = cell.val
					continue
				}
				// The computation failed and withdrew its entry: claim
				// it in the next round.
				pending = append(pending, waitIdx[k])
			case <-canceled:
				return nil, ctx.Err()
			}
		}
		slices.Sort(pending)
	}
	for i, j := range first {
		out[i] = out[j]
	}
	return out, nil
}

// fill runs compute for the freshly registered cells of keys[idx]. On
// any outcome but success every cell is withdrawn before waiters wake,
// and a panic keeps unwinding to this caller with its original value.
func (c *memo[K, T]) fill(keys []K, idx []int, cells []*memoCell[T], compute func([]int) ([]T, error)) ([]T, error) {
	ok := false
	defer func() {
		if !ok {
			c.mu.Lock()
			for k, cell := range cells {
				if c.m[keys[idx[k]]] == cell {
					delete(c.m, keys[idx[k]])
				}
			}
			c.mu.Unlock()
		}
		for _, cell := range cells {
			close(cell.done)
		}
	}()
	vals, err := compute(idx)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(idx) {
		panic(fmt.Sprintf("experiments: memo computation returned %d values for %d keys", len(vals), len(idx)))
	}
	for k, cell := range cells {
		cell.val, cell.ok = vals[k], true
	}
	ok = true
	return vals, nil
}

// reset drops every cached entry (used by the determinism tests to
// force recomputation).
func (c *memo[K, T]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// resetMemos clears every package-level cache, and the simulator's
// cache-filter logs, so a rerun records them afresh.
// TestResetMemosClearsEveryMemo fails when a new memo is left out.
func resetMemos() {
	sim.ResetCacheFilters()
	fig10Cache.reset()
	fig11Cache.reset()
	backendsCache.reset()
	runCache.reset()
	capCache.reset()
}
