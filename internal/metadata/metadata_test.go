package metadata

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"compresso/internal/rng"
)

func sampleEntry(r *rng.Rand) Entry {
	var e Entry
	e.Valid = r.Bool(0.9)
	e.Zero = r.Bool(0.1)
	e.Compressed = r.Bool(0.7)
	e.PageSizeCode = uint8(r.Intn(MaxChunks))
	e.InflatedCount = uint8(r.Intn(MaxInflated + 1))
	e.FreeSpace = uint16(r.Intn(PageSize + 1))
	for i := range e.MPFN {
		e.MPFN[i] = uint32(r.Intn(1 << MPFNBits))
	}
	for i := range e.LineSizeCode {
		e.LineSizeCode[i] = uint8(r.Intn(4))
	}
	for i := range e.Inflated {
		e.Inflated[i] = uint8(r.Intn(LinesPerPage))
	}
	return e
}

func TestEntryPackUnpackRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := sampleEntry(r)
		var buf [EntrySize]byte
		e.Pack(buf[:])
		got, err := Unpack(buf[:])
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryPackIsExactly64Bytes(t *testing.T) {
	var e Entry
	e.Valid = true
	var buf [EntrySize + 8]byte
	for i := range buf {
		buf[i] = 0xaa
	}
	e.Pack(buf[:])
	for i := EntrySize; i < len(buf); i++ {
		if buf[i] != 0xaa {
			t.Fatalf("Pack wrote past EntrySize at %d", i)
		}
	}
}

func TestEntryHalfBoundary(t *testing.T) {
	// The control word and all MPFNs must be recoverable from the
	// first 32 bytes alone: pack two entries differing only in
	// second-half fields and check their first halves are identical.
	r := rng.New(5)
	e1 := sampleEntry(r)
	e2 := e1
	e2.LineSizeCode[10] ^= 3
	e2.Inflated[3] ^= 7
	var b1, b2 [EntrySize]byte
	e1.Pack(b1[:])
	e2.Pack(b2[:])
	if !bytes.Equal(b1[:HalfEntrySize], b2[:HalfEntrySize]) {
		t.Fatal("second-half fields leaked into the first half")
	}
	if bytes.Equal(b1[HalfEntrySize:], b2[HalfEntrySize:]) {
		t.Fatal("second halves unexpectedly equal")
	}
	// And first-half fields must not leak into the second half.
	e3 := e1
	e3.MPFN[7] ^= 0xfff
	e3.FreeSpace ^= 0x3f
	var b3 [EntrySize]byte
	e3.Pack(b3[:])
	if !bytes.Equal(b1[HalfEntrySize:], b3[HalfEntrySize:]) {
		t.Fatal("first-half fields leaked into the second half")
	}
}

func TestEntryValidation(t *testing.T) {
	bad := []func(*Entry){
		func(e *Entry) { e.PageSizeCode = 8 },
		func(e *Entry) { e.InflatedCount = MaxInflated + 1 },
		func(e *Entry) { e.FreeSpace = PageSize + 1 },
		func(e *Entry) { e.MPFN[0] = 1 << MPFNBits },
		func(e *Entry) { e.LineSizeCode[5] = 4 },
		func(e *Entry) { e.Inflated[0] = LinesPerPage },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Pack of invalid entry did not panic", i)
				}
			}()
			var e Entry
			mutate(&e)
			var buf [EntrySize]byte
			e.Pack(buf[:])
		}()
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	if _, err := Unpack(make([]byte, 32)); err == nil {
		t.Fatal("Unpack of short buffer did not error")
	}
}

func TestChunksAndBytes(t *testing.T) {
	var e Entry
	if e.Chunks() != 0 {
		t.Errorf("invalid entry has %d chunks", e.Chunks())
	}
	e.Valid = true
	e.Zero = true
	if e.Chunks() != 0 {
		t.Errorf("zero page has %d chunks", e.Chunks())
	}
	e.Zero = false
	e.PageSizeCode = 2 // 3 chunks = 1536 B
	if e.Chunks() != 3 || e.AllocatedBytes() != 1536 {
		t.Errorf("Chunks=%d AllocatedBytes=%d", e.Chunks(), e.AllocatedBytes())
	}
}

func TestInflationRoomOps(t *testing.T) {
	var e Entry
	for i := 0; i < MaxInflated; i++ {
		pos, ok := e.AddInflated(i * 2)
		if !ok || pos != i {
			t.Fatalf("AddInflated(%d) = %d, %v", i*2, pos, ok)
		}
	}
	if _, ok := e.AddInflated(63); ok {
		t.Fatal("18th inflation pointer accepted")
	}
	if pos, ok := e.IsInflated(4); !ok || pos != 2 {
		t.Fatalf("IsInflated(4) = %d, %v", pos, ok)
	}
	if _, ok := e.IsInflated(5); ok {
		t.Fatal("IsInflated(5) true")
	}
	if !e.RemoveInflated(4) {
		t.Fatal("RemoveInflated(4) failed")
	}
	if e.InflatedCount != MaxInflated-1 {
		t.Fatalf("count %d after removal", e.InflatedCount)
	}
	if _, ok := e.IsInflated(4); ok {
		t.Fatal("line 4 still inflated after removal")
	}
	// Order of the remaining pointers is preserved.
	if pos, ok := e.IsInflated(6); !ok || pos != 2 {
		t.Fatalf("IsInflated(6) = %d, %v after compaction", pos, ok)
	}
	if e.RemoveInflated(99) {
		t.Fatal("RemoveInflated of absent line returned true")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(DefaultCacheConfig())
	if _, hit := c.Lookup(7); hit {
		t.Fatal("cold lookup hit")
	}
	c.Insert(7, false)
	l, hit := c.Lookup(7)
	if !hit || l.Page != 7 {
		t.Fatal("inserted page not found")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 2 * EntrySize, Ways: 2, HalfEntry: false})
	// One set, 2 ways -> capacity 2 full entries.
	c.Insert(0, false)
	c.Insert(1, false)
	c.Lookup(0) // 1 becomes LRU
	l, _ := c.Peek(1)
	l.Dirty = true
	_, ev := c.Insert(2, false)
	if len(ev) != 1 || ev[0].Page != 1 || !ev[0].Dirty {
		t.Fatalf("evicted %+v, want dirty page 1", ev)
	}
	if _, hit := c.Peek(0); !hit {
		t.Fatal("page 0 gone")
	}
}

func TestCacheHalfEntryDoubling(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 2 * EntrySize, Ways: 2, HalfEntry: true}
	c := NewCache(cfg)
	// Capacity 4 half-units: four half entries fit where two full ones
	// would.
	for p := uint64(0); p < 4; p++ {
		if _, ev := c.Insert(p, true); len(ev) != 0 {
			t.Fatalf("eviction while inserting half entry %d", p)
		}
	}
	if c.Resident() != 4 {
		t.Fatalf("resident %d, want 4", c.Resident())
	}
	// A fifth evicts exactly one half entry.
	_, ev := c.Insert(4, true)
	if len(ev) != 1 {
		t.Fatalf("evicted %d entries, want 1", len(ev))
	}
	// Without the optimization, half entries still cost a full slot.
	c2 := NewCache(CacheConfig{SizeBytes: 2 * EntrySize, Ways: 2, HalfEntry: false})
	c2.Insert(0, true)
	c2.Insert(1, true)
	if _, ev := c2.Insert(2, true); len(ev) != 1 {
		t.Fatal("disabled optimization still doubled capacity")
	}
}

func TestCachePromoteDemote(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 2 * EntrySize, Ways: 2, HalfEntry: true}
	c := NewCache(cfg)
	c.Insert(0, true)
	c.Insert(1, true)
	c.Insert(2, true)
	c.Insert(3, true) // set full: 4 half units
	l, _ := c.Peek(0)
	c.tickTouch(l)
	ev := c.Promote(l) // now costs 2: one other entry must go
	if len(ev) != 1 {
		t.Fatalf("Promote evicted %d, want 1", len(ev))
	}
	if l.Half {
		t.Fatal("line still half after Promote")
	}
	if c.Stats().Upgrades != 1 {
		t.Fatal("upgrade not counted")
	}
	c.Demote(l)
	if !l.Half {
		t.Fatal("line not half after Demote")
	}
}

// tickTouch marks a line most-recently-used for test setup.
func (c *Cache) tickTouch(l *Line) {
	c.tick++
	l.used = c.tick
}

func TestCacheInsertResidentPanics(t *testing.T) {
	c := NewCache(DefaultCacheConfig())
	c.Insert(3, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(3, false)
}

func TestCacheDropAndDrain(t *testing.T) {
	c := NewCache(DefaultCacheConfig())
	c.Insert(1, false)
	l, _ := c.Peek(1)
	l.Dirty = true
	c.Insert(2, true)
	c.Drop(1)
	if c.Resident() != 1 {
		t.Fatalf("resident %d after drop", c.Resident())
	}
	out := c.Drain()
	if len(out) != 1 || out[0].Page != 2 {
		t.Fatalf("Drain = %+v", out)
	}
	if c.Resident() != 0 {
		t.Fatal("cache not empty after Drain")
	}
}

func TestLinePredictor(t *testing.T) {
	l := &Line{}
	if l.PredictorHigh() {
		t.Fatal("fresh predictor high")
	}
	l.BumpPredictor(true)
	l.BumpPredictor(true)
	if !l.PredictorHigh() {
		t.Fatal("predictor not high after 2 overflows")
	}
	l.BumpPredictor(true)
	l.BumpPredictor(true)
	if l.Predictor != 3 {
		t.Fatalf("predictor %d, want saturation at 3", l.Predictor)
	}
	for i := 0; i < 5; i++ {
		l.BumpPredictor(false)
	}
	if l.Predictor != 0 {
		t.Fatalf("predictor %d, want floor 0", l.Predictor)
	}
}

func TestGlobalPredictor(t *testing.T) {
	var g GlobalPredictor
	if g.High() {
		t.Fatal("fresh global predictor high")
	}
	for i := 0; i < 4; i++ {
		g.Record(true)
	}
	if !g.High() || g.Value() != 4 {
		t.Fatalf("value %d after 4 overflows", g.Value())
	}
	for i := 0; i < 10; i++ {
		g.Record(true)
	}
	if g.Value() != 7 {
		t.Fatalf("value %d, want saturation at 7", g.Value())
	}
	for i := 0; i < 10; i++ {
		g.Record(false)
	}
	if g.Value() != 0 || g.High() {
		t.Fatalf("value %d after decay", g.Value())
	}
}

func TestCacheStatsHitRate(t *testing.T) {
	var s CacheStats
	// No accesses means no meaningful rate: NaN, which renderers show
	// as "n/a" (an uncompressed run must not report a perfect cache).
	if !math.IsNaN(s.HitRate()) {
		t.Fatalf("empty hit rate = %v, want NaN", s.HitRate())
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
}

func TestCacheConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 100, Ways: 8})
}

func TestDefaultCacheGeometry(t *testing.T) {
	// 96 KB / (8 ways * 64 B) = 192 sets.
	c := NewCache(DefaultCacheConfig())
	if len(c.sets) != 192 {
		t.Fatalf("sets = %d, want 192", len(c.sets))
	}
}

// evictionCache builds a HalfEntry cache of n two-way sets, each filled
// with pages k, k+n, ... through fill (one call per set).
func evictionCache(n int, fill func(c *Cache, set uint64)) *Cache {
	c := NewCache(CacheConfig{SizeBytes: n * 2 * EntrySize, Ways: 2, HalfEntry: true})
	for k := uint64(0); k < uint64(n); k++ {
		fill(c, k)
	}
	return c
}

// TestPromoteEvictionZeroAllocs pins Promote's eviction path at zero
// allocations: the evictions come back in the cache's reused scratch
// buffer. Each run promotes the half entry of a fresh full set, so
// every call evicts.
func TestPromoteEvictionZeroAllocs(t *testing.T) {
	const sets = 64
	var targets []*Line
	c := evictionCache(sets, func(c *Cache, k uint64) {
		for i := uint64(1); i < 4; i++ {
			c.Insert(k+i*sets, true)
		}
		l, _ := c.Insert(k, true) // most recent: the LRU victim is another page
		targets = append(targets, l)
	})
	next := 0
	allocs := testing.AllocsPerRun(sets-1, func() {
		if ev := c.Promote(targets[next]); len(ev) != 1 {
			t.Fatalf("Promote evicted %d entries, want 1", len(ev))
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("Promote with eviction: %v allocs, want 0", allocs)
	}
}

// TestInsertEvictionAllocsOnlyLine pins Insert's eviction path at one
// allocation, the new *Line: the evictions reuse the scratch buffer and
// the set's slice keeps its capacity.
func TestInsertEvictionAllocsOnlyLine(t *testing.T) {
	const sets = 64
	c := evictionCache(sets, func(c *Cache, k uint64) {
		c.Insert(k, false)
		c.Insert(k+sets, false)
	})
	next := uint64(0)
	allocs := testing.AllocsPerRun(sets-1, func() {
		if _, ev := c.Insert(next+2*sets, false); len(ev) != 1 {
			t.Fatalf("Insert evicted %d entries, want 1", len(ev))
		}
		next++
	})
	if allocs != 1 {
		t.Fatalf("Insert with eviction: %v allocs, want 1 (the new line)", allocs)
	}
}
