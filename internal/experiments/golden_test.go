package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickSweepGolden compares a quick-mode RunAll on two workers, the
// output of `compresso-sim -exp all -quick -jobs 2`, byte for byte with
// testdata/quick_sweep.txt. When a change moves the sweep's numbers on
// purpose, regenerate the file with that command and say why in the
// change.
func TestQuickSweepGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full quick sweep: skipped under -short and -race")
	}
	want, err := os.ReadFile("testdata/quick_sweep.txt")
	if err != nil {
		t.Fatal(err)
	}
	resetMemos()
	defer resetMemos()
	var got bytes.Buffer
	if err := RunAll(Options{Out: &got, Quick: true, Seed: 42, Jobs: 2}); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("quick sweep drifted from testdata/quick_sweep.txt at line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("quick sweep has %d lines, testdata/quick_sweep.txt %d", len(g), len(w))
}
