package cpu

import (
	"testing"

	"compresso/internal/cache"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/workload"
)

type zeroSource struct{}

func (zeroSource) ReadLine(addr uint64, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
}

func newCore(t *testing.T) (*Core, *dram.Memory) {
	t.Helper()
	mem := dram.New(dram.DDR4_2666())
	ctl := memctl.NewUncompressed(mem)
	hier := cache.NewHierarchy(cache.New("l3", 2<<20, 16))
	return New(DefaultConfig(), hier, ctl, zeroSource{}), mem
}

func step(c *Core, instrs int, addr uint64, write bool) {
	c.Step(&workload.Op{NonMemInstrs: instrs, LineAddr: addr, Write: write})
}

func TestIssueWidthAdvancesClock(t *testing.T) {
	c, _ := newCore(t)
	// Warm the line so the op itself is an L1 hit.
	step(c, 0, 0, false)
	c.Drain()
	start := c.Now()
	step(c, 399, 0, false) // 400 instructions at width 4 = 100 cycles
	if got := c.Now() - start; got != 100 {
		t.Fatalf("400 instrs advanced %d cycles, want 100", got)
	}
}

func TestL1HitNoStall(t *testing.T) {
	c, _ := newCore(t)
	step(c, 0, 5, false) // miss, fills
	c.Drain()
	s0 := c.Stats().StallCycles
	step(c, 0, 5, false) // L1 hit
	if c.Stats().StallCycles != s0 {
		t.Fatal("L1 hit stalled")
	}
	if c.Stats().LoadsL1 != 1 {
		t.Fatalf("LoadsL1 = %d", c.Stats().LoadsL1)
	}
}

func TestMemoryMissStallsEventually(t *testing.T) {
	c, _ := newCore(t)
	// A long pointer-chase of cold misses must accumulate stalls once
	// the MLP window fills.
	for i := uint64(0); i < 100; i++ {
		step(c, 0, i*64, false) // distinct sets, all cold
	}
	c.Drain()
	st := c.Stats()
	if st.LoadsMem != 100 {
		t.Fatalf("LoadsMem = %d", st.LoadsMem)
	}
	if st.StallCycles == 0 {
		t.Fatal("100 cold misses produced no stalls")
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// With instruction gaps below the ROB reach, misses overlap: total
	// time must be far below misses * unloaded latency.
	c, mem := newCore(t)
	unloaded := mem.ReadLatency()
	const n = 64
	for i := uint64(0); i < n; i++ {
		step(c, 3, i*977, false)
	}
	c.Drain()
	serial := unloaded * n
	if c.Now() >= serial {
		t.Fatalf("no overlap: %d cycles vs serial %d", c.Now(), serial)
	}
}

func TestMLPCapSerializes(t *testing.T) {
	// The same back-to-back miss stream must run slower with MLP=1
	// (every miss serializes) than with the default window.
	run := func(mlp int) uint64 {
		cfg := DefaultConfig()
		cfg.MLP = mlp
		mem := dram.New(dram.DDR4_2666())
		ctl := memctl.NewUncompressed(mem)
		c := New(cfg, cache.NewHierarchy(cache.New("l3", 2<<20, 16)), ctl, zeroSource{})
		for i := uint64(0); i < 64; i++ {
			step(c, 0, i*977, false)
		}
		c.Drain()
		return c.Now()
	}
	wide := run(10)
	narrow := run(1)
	if narrow <= wide {
		t.Fatalf("MLP=1 (%d cycles) not slower than MLP=10 (%d cycles)", narrow, wide)
	}
}

func TestStoresArePosted(t *testing.T) {
	c, _ := newCore(t)
	before := c.Stats().StallCycles
	for i := uint64(0); i < 50; i++ {
		step(c, 0, i*977, true)
	}
	if c.Stats().StallCycles != before {
		t.Fatal("stores stalled the core")
	}
}

// faultingController injects a page-fault-like completion on writes.
type faultingController struct {
	memctl.Uncompressed
	penalty uint64
}

func (f *faultingController) WriteLine(now uint64, a uint64, d []byte) memctl.Result {
	return memctl.Result{Done: now + f.penalty}
}
func (f *faultingController) ReadLine(now uint64, a uint64) memctl.Result {
	return memctl.Result{Done: now + 50}
}
func (f *faultingController) InstallPage(p uint64, l [][]byte) {}
func (f *faultingController) ResetStats()                      {}
func (f *faultingController) Stats() memctl.Stats              { return memctl.Stats{} }
func (f *faultingController) CompressedBytes() int64           { return 0 }
func (f *faultingController) InstalledBytes() int64            { return 0 }

func TestWritebackFaultStalls(t *testing.T) {
	f := &faultingController{penalty: 5000}
	hier := &cache.Hierarchy{
		L1: cache.New("l1", 2*64, 2),
		L2: cache.New("l2", 4*64, 2),
		L3: cache.New("l3", 8*64, 2),
	}
	c := New(DefaultConfig(), hier, f, zeroSource{})
	// Dirty many conflicting lines so writebacks reach the controller.
	for i := uint64(0); i < 200; i++ {
		step(c, 0, i*64, true)
	}
	if c.Stats().StallCycles < 5000 {
		t.Fatalf("stalls %d: fault penalty not charged", c.Stats().StallCycles)
	}
}

// lineSource holds distinct line values and offers views of them;
// copySource offers only copies.
type lineSource struct{ mem []byte }

func (s lineSource) ReadLine(addr uint64, buf []byte) { copy(buf, s.Line(addr)) }
func (s lineSource) Line(addr uint64) []byte {
	return s.mem[addr*memctl.LineBytes : (addr+1)*memctl.LineBytes]
}

type copySource struct{ src lineSource }

func (s copySource) ReadLine(addr uint64, buf []byte) { s.src.ReadLine(addr, buf) }

// capturingController records the data of every writeback.
type capturingController struct {
	faultingController
	writes []capturedWrite
}

type capturedWrite struct {
	addr uint64
	data []byte
}

func (c *capturingController) WriteLine(now uint64, a uint64, d []byte) memctl.Result {
	c.writes = append(c.writes, capturedWrite{a, d})
	return memctl.Result{Done: now}
}

// TestWritebackCarriesSourceLine: a writeback carries its line's value
// from either kind of source, as a view of the source's memory when it
// offers views and as a copy when it does not.
func TestWritebackCarriesSourceLine(t *testing.T) {
	const lines = 512
	mem := make([]byte, lines*memctl.LineBytes)
	for i := range mem {
		mem[i] = byte(i/memctl.LineBytes) ^ byte(i)
	}
	for _, tc := range []struct {
		name string
		src  memctl.LineSource
		view bool
	}{{"view", lineSource{mem}, true}, {"copy", copySource{lineSource{mem}}, false}} {
		ctl := &capturingController{}
		hier := &cache.Hierarchy{
			L1: cache.New("l1", 2*64, 2),
			L2: cache.New("l2", 4*64, 2),
			L3: cache.New("l3", 8*64, 2),
		}
		c := New(DefaultConfig(), hier, ctl, tc.src)
		for i := uint64(0); i < lines; i++ {
			step(c, 0, i*7%lines, true)
		}
		if len(ctl.writes) == 0 {
			t.Fatalf("%s: no writebacks", tc.name)
		}
		for _, w := range ctl.writes {
			line := mem[w.addr*memctl.LineBytes : (w.addr+1)*memctl.LineBytes]
			if aliased := &w.data[0] == &line[0]; aliased != tc.view {
				t.Fatalf("%s: writeback of line %d aliases the source %v, want %v", tc.name, w.addr, aliased, tc.view)
			}
			if !tc.view {
				continue // the copy buffer has since been reused
			}
			if string(w.data) != string(line) {
				t.Fatalf("%s: writeback of line %d carried another value", tc.name, w.addr)
			}
		}
		if last := ctl.writes[len(ctl.writes)-1]; string(last.data) != string(mem[last.addr*memctl.LineBytes:(last.addr+1)*memctl.LineBytes]) {
			t.Fatalf("%s: last writeback carried another value", tc.name)
		}
	}
}

func TestIPCBounds(t *testing.T) {
	c, _ := newCore(t)
	for i := 0; i < 2000; i++ {
		step(c, 11, 0, false) // all L1 hits after the first
	}
	c.Drain()
	ipc := c.Stats().IPC()
	if ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC %v outside (0, 4]", ipc)
	}
	if ipc < 3.5 {
		t.Fatalf("IPC %v too low for an all-hit trace", ipc)
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := newCore(t)
	step(c, 9, 0, false)
	step(c, 9, 0, true)
	st := c.Stats()
	if st.Instrs != 20 || st.MemOps != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStepMemoryMissesZeroAllocs pins the MLP window as allocation-free:
// a long run of cold loads keeps the window full, so every Step both
// retires and adds an outstanding miss.
func TestStepMemoryMissesZeroAllocs(t *testing.T) {
	c, _ := newCore(t)
	var addr uint64
	op := workload.Op{NonMemInstrs: 2}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			addr += 977 // always a fresh line: every load goes to memory
			op.LineAddr = addr
			c.Step(&op)
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocated %v times per 256 memory misses, want 0", allocs)
	}
	if c.Stats().LoadsMem == 0 {
		t.Fatal("no load reached memory")
	}
}

// scriptedController serves reads with preset latencies, in order.
type scriptedController struct {
	faultingController
	lat []uint64
}

func (s *scriptedController) ReadLine(now uint64, a uint64) memctl.Result {
	l := s.lat[0]
	s.lat = s.lat[1:]
	return memctl.Result{Done: now + l}
}

// TestMLPWindowRetiresOldestFirst: a completed miss leaves the window
// from its head, so the slow miss behind it stays outstanding and
// stalls the core once the window fills again.
func TestMLPWindowRetiresOldestFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 2
	ctl := &scriptedController{lat: []uint64{10, 1000, 10, 10}}
	c := New(cfg, cache.NewHierarchy(cache.New("l3", 2<<20, 16)), ctl, zeroSource{})
	step(c, 0, 64, false)   // A: done at 10
	step(c, 0, 128, false)  // B: done at ~1000; window [A B]
	step(c, 100, 64, false) // L1 hit on A's line; the clock passes A's completion
	step(c, 0, 192, false)  // C: A retires, window [B C]
	if st := c.Stats().StallCycles; st != 0 {
		t.Fatalf("stalled %d cycles before the window filled", st)
	}
	step(c, 0, 256, false) // D: the full window waits for B
	if st := c.Stats().StallCycles; st < 900 {
		t.Fatalf("stalled %d cycles, want B's remaining ~975: the window retired the wrong miss", st)
	}
}
