package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// memoProbe fills one memo with an entry and reports how many it holds.
type memoProbe struct {
	fill func()
	size func() int
}

func probeMemo[T any](c *memo[T]) memoProbe {
	// No sweep uses this key: real keys are (0 or 1, seed).
	key := [2]uint64{^uint64(0), ^uint64(0)}
	return memoProbe{
		fill: func() {
			var zero T
			_, _ = c.get(key, func() (T, error) { return zero, nil })
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
				idx, ok := vs.Type.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if id, ok := idx.X.(*ast.Ident); ok && id.Name == "memo" {
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
	probes := map[string]memoProbe{
		"fig10Cache":       probeMemo(&fig10Cache),
		"fig11Cache":       probeMemo(&fig11Cache),
		"backendsCache":    probeMemo(&backendsCache),
		"fleetSweepCache":  probeMemo(&fleetSweepCache),
		"fleetPolicyCache": probeMemo(&fleetPolicyCache),
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
