package experiments

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// memoProbe fills one memo with an entry and reports how many it holds.
type memoProbe struct {
	fill func()
	size func() int
}

// probeMemo takes a key no sweep uses: sweep keys are (0 or 1, seed)
// and every run or capacity cell key names a benchmark or a mix.
func probeMemo[K comparable, T any](c *memo[K, T], key K) memoProbe {
	return memoProbe{
		fill: func() {
			var zero T
			_, _ = c.get(context.Background(), key, func() (T, error) { return zero, nil })
		},
		size: func() int {
			c.mu.Lock()
			defer c.mu.Unlock()
			return len(c.m)
		},
	}
}

// declaredMemos returns the names of the package-level memo variables
// declared in the package's non-test sources.
func declaredMemos(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				// memo[K, T] parses as an IndexListExpr; a
				// one-parameter generic would be an IndexExpr.
				var generic ast.Expr
				switch t := vs.Type.(type) {
				case *ast.IndexListExpr:
					generic = t.X
				case *ast.IndexExpr:
					generic = t.X
				}
				if id, ok := generic.(*ast.Ident); ok && id.Name == "memo" {
					for _, n := range vs.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestResetMemosClearsEveryMemo fills every package-level memo, calls
// resetMemos and requires all of them to be empty. The determinism
// tests rely on resetMemos to recompute shared sweeps at each jobs
// value; a memo it skips serves the first value's rows to the second.
func TestResetMemosClearsEveryMemo(t *testing.T) {
	unusedSweep := [2]uint64{^uint64(0), ^uint64(0)}
	probes := map[string]memoProbe{
		"fig10Cache":    probeMemo(&fig10Cache, unusedSweep),
		"fig11Cache":    probeMemo(&fig11Cache, unusedSweep),
		"backendsCache": probeMemo(&backendsCache, unusedSweep),
		"runCache":      probeMemo(&runCache, runKey{}),
		"capCache":      probeMemo(&capCache, capKey{}),
	}
	declared := declaredMemos(t)
	if len(declared) == 0 {
		t.Fatal("found no package-level memo declarations")
	}
	for _, name := range declared {
		if _, ok := probes[name]; !ok {
			t.Errorf("package-level memo %s has no probe in this test", name)
		}
	}
	defer resetMemos()
	for _, p := range probes {
		p.fill()
	}
	resetMemos()
	for name, p := range probes {
		if n := p.size(); n != 0 {
			t.Errorf("%s holds %d entries after resetMemos", name, n)
		}
	}
}

// waitingCtx reports, by closing waiting, the first time memo.get asks
// for its Done channel: get does that only once it has found its key in
// flight and is about to wait.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestMemoFailedComputationRerunsForWaiter: a caller waiting on an
// in-flight computation that fails does not inherit the failure; it
// runs the computation itself, and only that success is published.
func TestMemoFailedComputationRerunsForWaiter(t *testing.T) {
	var c memo[int, string]
	started := make(chan struct{})
	release := make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		_, err := c.get(context.Background(), 1, func() (string, error) {
			close(started)
			<-release
			return "", errors.New("first computation failed")
		})
		firstErr <- err
	}()
	<-started
	ctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	waiter := make(chan string, 1)
	go func() {
		v, err := c.get(ctx, 1, func() (string, error) { return "recomputed", nil })
		if err != nil {
			v = "error: " + err.Error()
		}
		waiter <- v
	}()
	<-ctx.waiting
	close(release)
	if err := <-firstErr; err == nil || !strings.Contains(err.Error(), "first computation failed") {
		t.Fatalf("computing caller got %v, want its own error", err)
	}
	if v := <-waiter; v != "recomputed" {
		t.Fatalf("waiter got %q, want its own recomputation", v)
	}
	v, err := c.get(context.Background(), 1, func() (string, error) {
		t.Error("published value was recomputed")
		return "", nil
	})
	if err != nil || v != "recomputed" {
		t.Fatalf("after the rerun: %q, %v; want the published recomputation", v, err)
	}
}

// TestMemoPanicPublishesNothing: a panicking computation unwinds to
// its own caller with the original value and leaves no entry behind.
func TestMemoPanicPublishesNothing(t *testing.T) {
	var c memo[int, int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the original panic value", r)
			}
		}()
		c.get(context.Background(), 1, func() (int, error) { panic("boom") })
	}()
	if len(c.m) != 0 {
		t.Fatalf("panicking computation left %d entries", len(c.m))
	}
	if v, err := c.get(context.Background(), 1, func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("after the panic: %d, %v; want a fresh computation", v, err)
	}
}

// TestMemoManyClaimsMissingKeysInOneComputation: getMany hands every
// key without a published value to one computation, once each however
// often keys repeats it, and returns each key's value in keys' order.
func TestMemoManyClaimsMissingKeysInOneComputation(t *testing.T) {
	var c memo[int, int]
	if _, err := c.get(context.Background(), 2, func() (int, error) { return 20, nil }); err != nil {
		t.Fatal(err)
	}
	var calls [][]int
	got, err := c.getMany(context.Background(), []int{1, 2, 3, 1}, func(idx []int) ([]int, error) {
		calls = append(calls, idx)
		vals := make([]int, len(idx))
		for k, i := range idx {
			vals[k] = []int{1, 2, 3, 1}[i] * 10
		}
		return vals, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{10, 20, 30, 10}) {
		t.Fatalf("getMany returned %v, want [10 20 30 10]", got)
	}
	if len(calls) != 1 || !slices.Equal(calls[0], []int{0, 2}) {
		t.Fatalf("computations %v, want one of the missing keys' indices [0 2]", calls)
	}
}

// TestMemoManyFailureWithdrawsEveryClaim: a multi-key computation that
// panics or fails publishes none of its keys, the panic unwinds to its
// own caller with its original value, and the next caller computes
// every key afresh.
func TestMemoManyFailureWithdrawsEveryClaim(t *testing.T) {
	for name, fail := range map[string]func() ([]int, error){
		"panic":    func() ([]int, error) { panic("boom") },
		"canceled": func() ([]int, error) { return nil, context.Canceled },
	} {
		t.Run(name, func(t *testing.T) {
			var c memo[int, int]
			func() {
				defer func() {
					if r := recover(); r != nil && r != "boom" {
						t.Fatalf("recovered %v, want the original panic value", r)
					}
				}()
				if _, err := c.getMany(context.Background(), []int{1, 2, 3}, func([]int) ([]int, error) {
					return fail()
				}); !errors.Is(err, context.Canceled) {
					t.Fatalf("failed computation returned %v, want its own error", err)
				}
			}()
			if len(c.m) != 0 {
				t.Fatalf("failed computation left %d of its 3 claims", len(c.m))
			}
			got, err := c.getMany(context.Background(), []int{1, 2, 3}, func(idx []int) ([]int, error) {
				return []int{7, 8, 9}[:len(idx)], nil
			})
			if err != nil || !slices.Equal(got, []int{7, 8, 9}) {
				t.Fatalf("after the failure: %v, %v; want a fresh computation of every key", got, err)
			}
		})
	}
}

// TestMemoManyWaiterRecomputesWithdrawnClaims: a caller that finds one
// of its keys in flight waits for it before claiming anything; when
// that computation fails and withdraws its claims, the waiter computes
// the withdrawn key together with its own missing ones, and only its
// values are published.
func TestMemoManyWaiterRecomputesWithdrawnClaims(t *testing.T) {
	var c memo[int, string]
	started := make(chan struct{})
	release := make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		_, err := c.getMany(context.Background(), []int{1, 2}, func([]int) ([]string, error) {
			close(started)
			<-release
			return nil, errors.New("first pass failed")
		})
		firstErr <- err
	}()
	<-started
	ctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	type outcome struct {
		vals []string
		err  error
	}
	waiter := make(chan outcome, 1)
	var waiterCalls [][]int
	go func() {
		vals, err := c.getMany(ctx, []int{2, 3}, func(idx []int) ([]string, error) {
			waiterCalls = append(waiterCalls, idx)
			vals := make([]string, len(idx))
			for k, i := range idx {
				vals[k] = []string{"two", "three"}[i]
			}
			return vals, nil
		})
		waiter <- outcome{vals, err}
	}()
	<-ctx.waiting
	c.mu.Lock()
	_, claimed := c.m[3]
	c.mu.Unlock()
	if claimed {
		t.Error("the waiter claimed its missing key while waiting")
	}
	close(release)
	if err := <-firstErr; err == nil || !strings.Contains(err.Error(), "first pass failed") {
		t.Fatalf("computing caller got %v, want its own error", err)
	}
	w := <-waiter
	if w.err != nil || !slices.Equal(w.vals, []string{"two", "three"}) {
		t.Fatalf("waiter got %v, %v; want its own computation", w.vals, w.err)
	}
	if len(waiterCalls) != 1 || !slices.Equal(waiterCalls[0], []int{0, 1}) {
		t.Fatalf("waiter computations %v, want one of both keys", waiterCalls)
	}
	c.mu.Lock()
	_, first := c.m[1]
	c.mu.Unlock()
	if first {
		t.Error("the failed pass's other key stayed claimed")
	}
}
