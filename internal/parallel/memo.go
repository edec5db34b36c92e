package parallel

import (
	"context"
	"sync"
)

// Memo is a process-wide table of values by key, the one claim rule
// behind every table the sweep shares (DESIGN.md §7, §13): the
// experiments' shared grids, run and capacity memos, the simulator's
// cache-filter logs and the workload images' pristine size and block
// tables. Each key has a lock that a caller holds for its whole
// computation, so one key computes one at a time and a caller that
// finds its key held waits for the holder rather than repeat its work.
//
// The claim rule: only a computation that returns normally with a nil
// error publishes. One that panics, is canceled or returns an error
// publishes nothing and reports to its own caller only; the next
// caller to take the key's lock then computes it itself, so every
// caller sees the error its own computation raises and a failure's
// text does not depend on which caller happened to compute first.
// Published values are shared: callers must not mutate them.
//
// A nil context never cancels. A wait asks for ctx.Done only once it
// finds the key's lock held.
type Memo[K comparable, T any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[T]
}

type memoEntry[T any] struct {
	held chan struct{} // a one-slot semaphore: the key's lock
	ok   bool          // val is published (both guarded by Memo.mu)
	val  T
}

// entry returns key's entry in the current generation, creating it.
// The caller holds c.mu.
func (c *Memo[K, T]) entry(key K) *memoEntry[T] {
	e := c.m[key]
	if e == nil {
		if c.m == nil {
			c.m = make(map[K]*memoEntry[T])
		}
		e = &memoEntry[T]{held: make(chan struct{}, 1)}
		c.m[key] = e
	}
	return e
}

// lock takes key's lock in the current generation, waiting on ctx:
// when ctx fires first, lock returns its error without the lock. The
// caller ends the hold with c.unlock.
func (c *Memo[K, T]) lock(ctx context.Context, key K) (*memoEntry[T], error) {
	for {
		c.mu.Lock()
		e := c.entry(key)
		c.mu.Unlock()
		select {
		case e.held <- struct{}{}:
		default:
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
			select {
			case e.held <- struct{}{}:
			case <-done:
				return nil, ctx.Err()
			}
		}
		c.mu.Lock()
		current := c.m[key] == e
		c.mu.Unlock()
		if current {
			return e, nil
		}
		<-e.held // Reset dropped the entry while this caller waited
	}
}

// unlock ends a hold on e, first publishing v when publish is set. An
// entry a Reset dropped is unreachable, so publishing into it is moot.
func (c *Memo[K, T]) unlock(e *memoEntry[T], v T, publish bool) {
	if publish {
		c.mu.Lock()
		e.val, e.ok = v, true
		c.mu.Unlock()
	}
	<-e.held
}

// Get returns key's published value without waiting. Otherwise it
// takes key's lock, returns the value a previous holder published
// meanwhile, or computes it and publishes it under the claim rule.
func (c *Memo[K, T]) Get(ctx context.Context, key K, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	e := c.m[key]
	if e != nil && e.ok {
		defer c.mu.Unlock()
		return e.val, nil
	}
	c.mu.Unlock()
	return c.Update(ctx, key, func(old T, ok bool) (T, error) {
		if ok {
			return old, nil
		}
		return compute()
	})
}

// Update takes key's lock and calls fn with key's published value (ok
// false when there is none). What fn returns with a nil error becomes
// key's published value; anything else publishes nothing, under the
// claim rule.
func (c *Memo[K, T]) Update(ctx context.Context, key K, fn func(old T, ok bool) (T, error)) (T, error) {
	var v T
	e, err := c.lock(ctx, key)
	if err != nil {
		return v, err
	}
	published := false
	defer func() { c.unlock(e, v, published) }()
	c.mu.Lock()
	old, ok := e.val, e.ok
	c.mu.Unlock()
	if v, err = fn(old, ok); err != nil {
		var zero T
		return zero, err
	}
	published = true
	return v, nil
}

// Claim is the claim for callers that must never wait. It returns
// key's published value with ok set; or, when key's lock is free, takes
// it and returns release, which the caller calls once to end the claim,
// publishing v when publish is set; or, when another caller holds the
// lock, returns neither.
func (c *Memo[K, T]) Claim(key K) (v T, ok bool, release func(v T, publish bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entry(key)
	if e.ok {
		return e.val, true, nil
	}
	select {
	case e.held <- struct{}{}:
		return v, false, func(v T, publish bool) { c.unlock(e, v, publish) }
	default:
		return v, false, nil
	}
}

// Len returns the number of published values.
func (c *Memo[K, T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.m {
		if e.ok {
			n++
		}
	}
	return n
}

// Reset starts a new generation: it drops every published value, and
// a holder still in flight completes but publishes nothing, while a
// caller waiting on it takes the key afresh.
func (c *Memo[K, T]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}
