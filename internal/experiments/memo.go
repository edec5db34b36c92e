package experiments

import (
	"fmt"
	"sync"
)

// memo is the deterministic singleflight cache behind the expensive
// shared sweeps (fig10's rows feed fig10a, fig10b and fig12; fig11's
// feed fig11a and fig11b). Keys are the (quick, seed) configuration.
// Under a parallel RunAll several experiments can want the same grid
// at once: the first caller computes it, concurrent callers block on
// the same entry and share the result. The grids are deterministic,
// so a cached value is byte-for-byte what the caller would have
// computed itself.
type memo[T any] struct {
	mu sync.Mutex
	m  map[[2]uint64]*memoCell[T]
}

type memoCell[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the cached value for key, computing it exactly once.
// A panic inside compute poisons the entry with an error (and still
// propagates to the computing caller), so waiters never observe a
// half-built zero value as a valid result.
func (c *memo[T]) get(key [2]uint64, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[[2]uint64]*memoCell[T]{}
	}
	cell, ok := c.m[key]
	if !ok {
		cell = &memoCell[T]{}
		c.m[key] = cell
	}
	c.mu.Unlock()
	cell.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				cell.err = fmt.Errorf("experiments: cached sweep panicked: %v", r)
				panic(r)
			}
		}()
		cell.val, cell.err = compute()
	})
	return cell.val, cell.err
}

// reset drops every cached entry (used by the determinism tests to
// force recomputation).
func (c *memo[T]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// resetMemos clears every package-level sweep cache.
// TestResetMemosClearsEveryMemo fails when a new one is left out.
func resetMemos() {
	fig10Cache.reset()
	fig11Cache.reset()
	backendsCache.reset()
	fleetSweepCache.reset()
	fleetPolicyCache.reset()
}
