package experiments

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"compresso/internal/parallel"
)

// memoProbe fills one memo with an entry and reports whether a reset
// dropped it.
type memoProbe struct {
	fill    func()
	dropped func() bool
}

// probeMemo takes a key no sweep uses: sweep keys are (0 or 1, seed)
// and every run stream or capacity cell key names a benchmark or a mix.
func probeMemo[K comparable, T any](c *parallel.Memo[K, T], key K) memoProbe {
	var zero T
	return memoProbe{
		fill: func() {
			_, _ = c.Get(context.Background(), key, func() (T, error) { return zero, nil })
		},
		dropped: func() bool {
			recomputed := false
			_, _ = c.Get(context.Background(), key, func() (T, error) {
				recomputed = true
				return zero, nil
			})
			return recomputed
		},
	}
}

// declaredMemos returns the names of the package-level parallel.Memo
// variables declared in the package's non-test sources.
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
				// parallel.Memo[K, T] parses as an IndexListExpr over
				// the selector parallel.Memo.
				generic, ok := vs.Type.(*ast.IndexListExpr)
				if !ok {
					continue
				}
				sel, ok := generic.X.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Memo" {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "parallel" {
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
// resetMemos and requires all of them to be empty, and the pass counts
// zero. The determinism tests rely on resetMemos to recompute shared
// sweeps at each jobs value; a memo it skips serves the first value's
// rows to the second, and counts it skips read another sweep's passes.
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
	passCount.all.Add(1)
	passCount.planned.Add(1)
	resetMemos()
	for name, p := range probes {
		if !p.dropped() {
			t.Errorf("%s kept its entry through resetMemos", name)
		}
	}
	if all, planned := passCount.all.Load(), passCount.planned.Load(); all != 0 || planned != 0 {
		t.Errorf("passCount kept %d passes, %d planned, through resetMemos", all, planned)
	}
}
