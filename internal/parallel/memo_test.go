package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitingCtx reports, by closing waiting, the first time a Memo asks
// for its Done channel: it does that only once it finds its key's lock
// held and is about to wait.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(ctx context.Context) *waitingCtx {
	return &waitingCtx{Context: ctx, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// holder runs one computation of key on c in the background: it
// returns once the computation holds key's lock, and the computation
// ends by calling finish when release is closed. done receives the
// caller's outcome: its error, or its panic value.
func holder(c *Memo[int, string], key int, finish func() (string, error)) (release chan struct{}, done chan any) {
	started := make(chan struct{})
	release, done = make(chan struct{}), make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- r
			}
		}()
		_, err := c.Get(context.Background(), key, func() (string, error) {
			close(started)
			<-release
			return finish()
		})
		done <- err
	}()
	<-started
	return release, done
}

// published returns key's published value in c, if any, without
// waiting or publishing.
func published(c *Memo[int, string], key int) (string, bool) {
	v, ok, release := c.Claim(key)
	if release != nil {
		release("", false)
	}
	return v, ok
}

// TestMemoClaimRule pins the claim rule every process-wide table
// shares: what publishes, who computes after a failure, how waits end,
// and that Claim and Reset keep to the rule.
func TestMemoClaimRule(t *testing.T) {
	boom := errors.New("first computation failed")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Memo[int, string])
	}{
		// A failed computation publishes nothing and reports to its own
		// caller only; a waiter then computes the value itself, and
		// only that success is published.
		{"panic publishes nothing", func(t *testing.T, c *Memo[int, string]) {
			failThenWaiterComputes(t, c, func() (string, error) { panic("boom") }, "boom")
		}},
		{"error publishes nothing", func(t *testing.T, c *Memo[int, string]) {
			failThenWaiterComputes(t, c, func() (string, error) { return "partial", boom }, boom)
		}},
		{"canceled publishes nothing", func(t *testing.T, c *Memo[int, string]) {
			failThenWaiterComputes(t, c, func() (string, error) { return "", context.Canceled }, context.Canceled)
		}},
		{"waiter context ends its wait", func(t *testing.T, c *Memo[int, string]) {
			release, done := holder(c, 1, func() (string, error) { return "held", nil })
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			t0 := time.Now()
			_, err := c.Get(ctx, 1, func() (string, error) {
				t.Error("a waiter computed while the key was held")
				return "", nil
			})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter returned %v, want its own deadline", err)
			}
			if waited := time.Since(t0); waited > 2*time.Second {
				t.Fatalf("waiter took %v to notice its context", waited)
			}
			close(release)
			if r := <-done; r != nil {
				t.Fatalf("holder ended with %v", r)
			}
			if v, ok := published(c, 1); !ok || v != "held" {
				t.Fatalf("after the hold: %q, %v; want the holder's value", v, ok)
			}
		}},
		{"claim never waits", func(t *testing.T, c *Memo[int, string]) {
			release, done := holder(c, 1, func() (string, error) { return "held", nil })
			if _, ok, rel := c.Claim(1); ok || rel != nil {
				t.Fatal("a claim on a held key got the value or the lock")
			}
			v, ok, rel := c.Claim(2)
			if ok || rel == nil {
				t.Fatalf("a claim on a free key: %q, %v, release %v", v, ok, rel != nil)
			}
			if _, _, again := c.Claim(2); again != nil {
				t.Fatal("two claims on one key both got the lock")
			}
			rel("claimed", true)
			if v, ok, rel := c.Claim(2); !ok || v != "claimed" || rel != nil {
				t.Fatalf("a claim on a published key: %q, %v, release %v", v, ok, rel != nil)
			}
			_, _, rel = c.Claim(3)
			rel("dropped", false)
			if _, ok := published(c, 3); ok {
				t.Fatal("a claim released without publishing published")
			}
			close(release)
			<-done
		}},
		{"reset during computation publishes nothing", func(t *testing.T, c *Memo[int, string]) {
			release, done := holder(c, 1, func() (string, error) { return "stale", nil })
			ctx := newWaitingCtx(context.Background())
			waiter := make(chan string, 1)
			go func() {
				v, _ := c.Get(ctx, 1, func() (string, error) { return "fresh", nil })
				waiter <- v
			}()
			<-ctx.waiting
			_, _, claim := c.Claim(2)
			c.Reset()
			claim("stale claim", true)
			close(release)
			if r := <-done; r != nil {
				t.Fatalf("holder ended with %v", r)
			}
			if v := <-waiter; v != "fresh" {
				t.Fatalf("a waiter across the reset got %q, want its own computation", v)
			}
			if _, ok := published(c, 2); ok {
				t.Fatal("a claim from before the reset published into the new generation")
			}
			if v, ok := published(c, 1); !ok || v != "fresh" {
				t.Fatalf("after the reset: %q, %v; want only the waiter's value", v, ok)
			}
			if n := c.Len(); n != 1 {
				t.Fatalf("%d values published after the reset, want 1", n)
			}
		}},
		{"update sees the previous value", func(t *testing.T, c *Memo[int, string]) {
			var seen []string
			for _, next := range []string{"a", "ab", "abc"} {
				v, err := c.Update(context.Background(), 1, func(old string, ok bool) (string, error) {
					if ok {
						seen = append(seen, old)
					}
					return next, nil
				})
				if err != nil || v != next {
					t.Fatalf("Update returned %q, %v; want %q", v, err, next)
				}
			}
			if _, err := c.Update(context.Background(), 1, func(old string, _ bool) (string, error) {
				return old + "!", boom
			}); !errors.Is(err, boom) {
				t.Fatalf("a failing update returned %v", err)
			}
			if len(seen) != 2 || seen[0] != "a" || seen[1] != "ab" {
				t.Fatalf("updates saw %q, want [a ab]", seen)
			}
			if v, _ := published(c, 1); v != "abc" {
				t.Fatalf("a failing update left %q published, want abc", v)
			}
		}},
		{"keys lock independently", func(t *testing.T, c *Memo[int, string]) {
			release, done := holder(c, 1, func() (string, error) { return "", boom })
			if v, err := c.Get(context.Background(), 2, func() (string, error) { return "two", nil }); err != nil || v != "two" {
				t.Fatalf("a held key blocked another: %q, %v", v, err)
			}
			close(release)
			<-done
			var inside, overlaps atomic.Int32
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.Update(context.Background(), 1, func(old string, _ bool) (string, error) {
						if inside.Add(1) > 1 {
							overlaps.Add(1)
						}
						time.Sleep(time.Millisecond)
						inside.Add(-1)
						return old + "x", nil
					})
				}()
			}
			wg.Wait()
			if n := overlaps.Load(); n != 0 {
				t.Fatalf("%d holders of one key overlapped", n)
			}
			if v, _ := published(c, 1); v != "xxxxxxxx" {
				t.Fatalf("eight updates left %q", v)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, &Memo[int, string]{}) })
	}
}

// failThenWaiterComputes holds key 1 in a computation that ends with
// fail while a second caller waits for it, then requires the holder to
// see its own failure (want: the panic value or the error), nothing to
// be published, and the waiter to compute and publish its own value.
func failThenWaiterComputes(t *testing.T, c *Memo[int, string], fail func() (string, error), want any) {
	t.Helper()
	release, done := holder(c, 1, fail)
	ctx := newWaitingCtx(context.Background())
	waiter := make(chan string, 1)
	go func() {
		v, err := c.Get(ctx, 1, func() (string, error) { return "recomputed", nil })
		if err != nil {
			v = "error: " + err.Error()
		}
		waiter <- v
	}()
	<-ctx.waiting
	close(release)
	got := <-done
	if err, ok := want.(error); ok {
		if e, _ := got.(error); !errors.Is(e, err) {
			t.Fatalf("holder got %v, want its own error %v", got, want)
		}
	} else if got != want {
		t.Fatalf("holder recovered %v, want the original panic value %v", got, want)
	}
	if v := <-waiter; v != "recomputed" {
		t.Fatalf("waiter got %q, want its own computation", v)
	}
	v, err := c.Get(context.Background(), 1, func() (string, error) {
		t.Error("the published value was recomputed")
		return "", nil
	})
	if err != nil || v != "recomputed" || c.Len() != 1 {
		t.Fatalf("after the rerun: %q, %v, %d published; want only the waiter's value", v, err, c.Len())
	}
}
