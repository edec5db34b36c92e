package main

import (
	"sync"
	"testing"
	"time"
)

// TestCellLogConcurrent feeds the sweep's progress sink from several
// goroutines, as a parallel grid does, and checks that every cell is
// kept and that exported spans sharing a lane never overlap.
func TestCellLogConcurrent(t *testing.T) {
	p := &cellLog{base: time.Now()}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.GridCell("grid", i, time.Duration(i%5)*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if len(p.cells) != 200 {
		t.Fatalf("kept %d cells, want 200", len(p.cells))
	}
	laneEnd := map[int]float64{}
	for _, e := range p.events()[1:] {
		if e.TsUs < laneEnd[e.Tid] {
			t.Fatalf("span at %v µs overlaps the previous one in lane %d ending at %v", e.TsUs, e.Tid, laneEnd[e.Tid])
		}
		laneEnd[e.Tid] = e.TsUs + e.DurUs
	}
}
