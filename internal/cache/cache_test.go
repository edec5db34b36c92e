package cache

import (
	"testing"

	"compresso/internal/rng"
)

func TestBasicHitMiss(t *testing.T) {
	c := New("t", 8*LineSize, 2) // 4 sets, 2 ways
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("second access missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", 2*LineSize, 2) // 1 set, 2 ways
	c.Access(0, false)
	c.Access(1, false)
	c.Access(0, false) // touch 0: now 1 is LRU
	_, victim, evicted := c.Access(2, false)
	if !evicted || victim.LineAddr != 1 {
		t.Fatalf("evicted=%v victim=%+v, want line 1", evicted, victim)
	}
	if !c.Contains(0) || c.Contains(1) || !c.Contains(2) {
		t.Fatal("contents wrong after eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New("t", 2*LineSize, 2)
	c.Access(0, true) // dirty
	c.Access(1, false)
	_, victim, evicted := c.Access(2, false) // evicts 0
	if !evicted || !victim.Dirty || victim.LineAddr != 0 {
		t.Fatalf("victim = %+v", victim)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
	// Clean eviction: no writeback counted.
	c.Access(3, false) // evicts 1 (clean)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("clean eviction counted as writeback")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New("t", 2*LineSize, 2)
	c.Access(0, false)
	c.Access(0, true) // write hit
	c.Access(1, false)
	_, victim, _ := c.Access(2, false)
	if !victim.Dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestSetIndexing(t *testing.T) {
	c := New("t", 8*LineSize, 2) // 4 sets
	// Lines 0 and 4 share set 0; lines 1,2,3 do not conflict with them.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(8, false) // evicts 0 (set 0 is full)
	if c.Contains(0) {
		t.Fatal("line 0 survived a 3-deep conflict in a 2-way set")
	}
	if !c.Contains(4) || !c.Contains(8) {
		t.Fatal("wrong lines evicted")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []struct{ size, ways int }{
		{0, 1}, {64, 0}, {100, 1}, {3 * LineSize, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", bad.size, bad.ways)
				}
			}()
			New("bad", bad.size, bad.ways)
		}()
	}
}

func TestHierarchyFillPath(t *testing.T) {
	h := NewHierarchy(New("l3", 2<<20, 16))
	level := h.Access(100, false)
	if level != 4 {
		t.Fatalf("cold access served from level %d, want 4 (memory)", level)
	}
	if len(h.Events) != 1 || h.Events[0].Write || h.Events[0].LineAddr != 100 {
		t.Fatalf("events = %+v, want one fill of line 100", h.Events)
	}
	if level := h.Access(100, false); level != 1 {
		t.Fatalf("hot access served from level %d, want 1", level)
	}
	if len(h.Events) != 0 {
		t.Fatalf("L1 hit generated memory events: %+v", h.Events)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(New("l3", 2<<20, 16))
	h.Access(0, false)
	// Evict line 0 from L1 by filling its set (8 ways, 128 sets).
	sets := uint64(64 << 10 / (8 * LineSize))
	for i := uint64(1); i <= 8; i++ {
		h.Access(i*sets, false)
	}
	if h.L1.Contains(0) {
		t.Skip("line 0 still in L1; conflict pattern assumption broken")
	}
	level := h.Access(0, false)
	if level != 2 {
		t.Fatalf("served from level %d, want 2", level)
	}
}

func TestHierarchyDirtyWritebackReachesMemory(t *testing.T) {
	l3 := New("l3", 64*LineSize, 1) // tiny direct-mapped L3 to force evictions
	h := &Hierarchy{
		L1: New("l1", 2*LineSize, 2),
		L2: New("l2", 4*LineSize, 2),
		L3: l3,
	}
	h.Access(0, true) // dirty in L1
	// Touch many conflicting lines to push line 0 out of every level.
	writebacks := 0
	for i := uint64(1); i < 400; i++ {
		h.Access(i*64, true)
		for _, e := range h.Events {
			if e.Write && e.LineAddr == 0 {
				writebacks++
			}
		}
	}
	if writebacks == 0 {
		t.Fatal("dirty line 0 never written back to memory")
	}
}

func TestHierarchyEventConservation(t *testing.T) {
	// Property: over a random workload, every dirty line that leaves
	// the hierarchy appears as exactly one write event while resident
	// dirty lines do not. We check the weaker invariant that writeback
	// events never exceed write accesses.
	h := &Hierarchy{
		L1: New("l1", 8*LineSize, 2),
		L2: New("l2", 32*LineSize, 4),
		L3: New("l3", 64*LineSize, 4),
	}
	r := rng.New(33)
	var writes, wbEvents int
	for i := 0; i < 20000; i++ {
		addr := uint64(r.Intn(4096))
		w := r.Bool(0.3)
		if w {
			writes++
		}
		h.Access(addr, w)
		for _, e := range h.Events {
			if e.Write {
				wbEvents++
			}
		}
	}
	if wbEvents == 0 {
		t.Fatal("no writebacks in a write-heavy random workload")
	}
	if wbEvents > writes {
		t.Fatalf("%d writeback events exceed %d write accesses", wbEvents, writes)
	}
}

func TestHierarchyMissRatesOrdered(t *testing.T) {
	// Under a working set that fits L3 but not L1, the L1 should miss
	// more than the L3 after warmup.
	h := NewHierarchy(New("l3", 2<<20, 16))
	r := rng.New(44)
	ws := 4096 // lines = 256 KB working set: fits L3, not L1
	for i := 0; i < 100000; i++ {
		h.Access(uint64(r.Intn(ws)), r.Bool(0.2))
	}
	l1 := h.L1.Stats().MissRate()
	if l1 < 0.5 {
		t.Errorf("L1 miss rate %v suspiciously low for 4x-oversized working set", l1)
	}
	// After warmup the L3 holds the whole working set.
	h.L3.ResetStats()
	for i := 0; i < 50000; i++ {
		h.Access(uint64(r.Intn(ws)), false)
	}
	if mr := h.L3.Stats().MissRate(); mr > 0.01 {
		t.Errorf("L3 miss rate %v for resident working set", mr)
	}
}
