package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3, 100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Workers(2, 100); got != 2 {
		t.Fatalf("Workers(2, 100) = %d, want 2", got)
	}
	if got := Workers(8, 0); got != 1 {
		t.Fatalf("Workers(8, 0) = %d, want 1", got)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		got := Map(jobs, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: index %d = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := Map(4, 0, func(i int) int { t.Fatal("cell ran"); return 0 })
	if len(got) != 0 {
		t.Fatalf("len %d", len(got))
	}
}

func TestMapRunsEveryCellOnce(t *testing.T) {
	var counts [257]atomic.Int32
	Map(7, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestMapPanicPropagatesLowestIndex(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("jobs=%d: no panic", jobs)
				}
				if msg, ok := r.(string); !ok || msg != "cell 3 blew up" {
					t.Fatalf("jobs=%d: recovered %v, want lowest-index panic", jobs, r)
				}
			}()
			Map(jobs, 20, func(i int) int {
				if i == 3 || i == 17 {
					panic(fmt.Sprintf("cell %d blew up", i))
				}
				return i
			})
		}()
	}
}

func TestStridedRunsEveryIndexOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 7, 0} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]atomic.Int32, n)
			Strided(jobs, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("jobs=%d n=%d: index %d ran %d times", jobs, n, i, c)
				}
			}
		}
	}
}
