package cache

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"compresso/internal/rng"
)

// tinyHierarchy has caches small enough that dirty cascades from L1
// and L2 are common, so single ops reach three L3 accesses and three
// writebacks: the widest values the log's 2-bit fields hold.
func tinyHierarchy() *Hierarchy {
	return &Hierarchy{
		L1: New("l1", 4*LineSize, 2),
		L2: New("l2", 8*LineSize, 2),
		L3: New("l3", 16*LineSize, 2),
	}
}

type filterOp struct {
	line  uint64
	write bool
}

func randomOps(seed uint64, n int, lines int) []filterOp {
	r := rng.New(seed)
	ops := make([]filterOp, n)
	for i := range ops {
		ops[i] = filterOp{uint64(r.Intn(lines)), r.Bool(0.6)}
	}
	return ops
}

// checkFilterReplay records ops on one hierarchy from mk, replays the
// log into a second and runs a third live, requiring after every op
// the replay's level, events and L3 counters to be the live one's,
// across a mid-run ResetStats like the simulator's warmup reset. The
// replaying L1 must stay untouched. It returns the most L3 accesses
// and writebacks one op caused.
func checkFilterReplay(t *testing.T, mk func() *Hierarchy, ops []filterOp) (maxL3, maxWB uint64) {
	t.Helper()
	log := NewFilterLog(len(ops))
	rec := mk()
	rec.Record(log)
	for _, op := range ops {
		rec.Access(op.line, op.write)
	}
	log.Finish()

	live, play := mk(), mk()
	play.Replay(log)
	for i, op := range ops {
		if i == len(ops)/3 {
			live.ResetStats()
			play.ResetStats()
		}
		before := live.L3.Stats()
		want := live.Access(op.line, op.write)
		got := play.Access(op.line, op.write)
		if got != want || !slices.Equal(play.Events, live.Events) || play.L3.Stats() != live.L3.Stats() {
			t.Fatalf("op %d (%+v): replay level %d events %v L3 %+v; live level %d events %v L3 %+v",
				i, op, got, play.Events, play.L3.Stats(), want, live.Events, live.L3.Stats())
		}
		after := live.L3.Stats()
		maxL3 = max(maxL3, after.Accesses()-before.Accesses())
		maxWB = max(maxWB, after.Writebacks-before.Writebacks)
	}
	if play.L1.Stats().Accesses() != 0 {
		t.Fatal("replay touched L1")
	}
	return maxL3, maxWB
}

// TestFilterReplayMatchesLive replays a recorded op sequence into a
// fresh hierarchy and requires, after every op, the level, the events
// and the L3 counters of a live hierarchy fed the same ops. The ops
// must reach the widest outcome, three L3 accesses and three
// writebacks.
func TestFilterReplayMatchesLive(t *testing.T) {
	maxL3, maxWB := checkFilterReplay(t, tinyHierarchy, randomOps(7, 30000, 128))
	if maxL3 != 3 || maxWB != 3 {
		t.Fatalf("widest op: %d L3 accesses, %d writebacks; want 3 and 3 to cover the field width", maxL3, maxWB)
	}
}

// FuzzFilterReplayMatchesLive: an arbitrary op stream through an
// arbitrary small hierarchy, recorded and replayed, must match a live
// run op by op. Small levels make double cascades and writebacks
// common, so the rare packed outcomes are reached.
func FuzzFilterReplayMatchesLive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(0))
	f.Add(bytes.Repeat([]byte{0x81, 0x13, 0x42, 0xc7, 0x05, 0xfe}, 200), uint16(0x1234))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f, 0x80}, 300), uint16(0xffff))
	f.Fuzz(func(t *testing.T, data []byte, geometry uint16) {
		// Each level takes 1-4 ways and 1-8 sets from four bits of
		// geometry.
		level := func(name string, bits uint16) *Cache {
			ways := 1 + int(bits&3)
			sets := 1 << (bits >> 2 & 3)
			return New(name, sets*ways*LineSize, ways)
		}
		mk := func() *Hierarchy {
			return &Hierarchy{L1: level("l1", geometry), L2: level("l2", geometry>>4), L3: level("l3", geometry>>8)}
		}
		// Each op is two bytes: the write bit and the line's high bit,
		// then its low byte (lines 0-511).
		var ops []filterOp
		for k := 0; k+1 < len(data); k += 2 {
			ops = append(ops, filterOp{uint64(data[k]&1)<<8 | uint64(data[k+1]), data[k]&0x80 != 0})
		}
		checkFilterReplay(t, mk, ops)
	})
}

// TestFilterCodesRoundTrip checks the one-byte packing exhaustively:
// exactly the 140 outcomes the rules allow have a code, the codes are
// distinct, and each one appended by a recording replays as the level,
// L3 deltas and writebacks it was recorded from. Every other outcome
// panics on recording.
func TestFilterCodesRoundTrip(t *testing.T) {
	type tuple struct {
		level int
		delta Stats
	}
	var valid, invalid []tuple
	for level := 1; level <= 5; level++ {
		for k := range 1 << 10 {
			d := Stats{uint64(k & 3), uint64(k >> 2 & 3), uint64(k >> 4 & 3), uint64(k >> 6 & 3)}
			if k>>8 != 0 {
				d.Hits += 4 // a delta wider than the 2-bit field
			}
			if level <= 4 && k>>8 == 0 && d.Hits+d.Misses <= 3 && d.Evictions <= d.Misses && d.Writebacks <= d.Evictions {
				valid = append(valid, tuple{level, d})
			} else {
				invalid = append(invalid, tuple{level, d})
			}
		}
	}
	if len(valid) != 140 {
		t.Fatalf("%d valid outcomes, want 140", len(valid))
	}
	log := NewFilterLog(len(valid))
	for i, v := range valid {
		var events []MemoryEvent
		for w := range v.delta.Writebacks {
			events = append(events, MemoryEvent{LineAddr: uint64(i)<<2 | w, Write: true})
		}
		log.add(v.level, Stats{}, v.delta, events)
	}
	seen := make(map[uint8]bool)
	for _, c := range log.codes {
		if seen[c] || c == filterNoCode {
			t.Fatalf("code %#x repeated or reserved", c)
		}
		seen[c] = true
	}
	log.Finish()
	h := tinyHierarchy()
	h.Replay(log)
	for i, v := range valid {
		before := h.L3.Stats()
		level := h.Access(uint64(i), false)
		after := h.L3.Stats()
		got := Stats{after.Hits - before.Hits, after.Misses - before.Misses,
			after.Evictions - before.Evictions, after.Writebacks - before.Writebacks}
		var wbs []uint64
		for _, ev := range h.Events {
			if ev.Write {
				wbs = append(wbs, ev.LineAddr)
			}
		}
		if level != v.level || got != v.delta || len(wbs) != int(v.delta.Writebacks) {
			t.Fatalf("outcome %d: replayed level %d deltas %+v with %d writebacks, recorded level %d deltas %+v",
				i, level, got, len(wbs), v.level, v.delta)
		}
		for w, a := range wbs {
			if a != uint64(i)<<2|uint64(w) {
				t.Fatalf("outcome %d: writeback %d at line %#x", i, w, a)
			}
		}
	}
	for _, v := range invalid {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "cannot pack") {
					t.Fatalf("level %d deltas %+v: recovered %q, want the packing guard", v.level, v.delta, msg)
				}
			}()
			NewFilterLog(1).add(v.level, Stats{}, v.delta, nil)
		}()
	}
}

// TestFilterReplayTwice replays one log into two hierarchies at once:
// replay reads the log and never writes it.
func TestFilterReplayTwice(t *testing.T) {
	ops := randomOps(9, 5000, 64)
	log := NewFilterLog(0)
	rec := tinyHierarchy()
	rec.Record(log)
	for _, op := range ops {
		rec.Access(op.line, op.write)
	}
	log.Finish()
	a, b := tinyHierarchy(), tinyHierarchy()
	a.Replay(log)
	b.Replay(log)
	for _, op := range ops {
		la, lb := a.Access(op.line, op.write), b.Access(op.line, op.write)
		if la != lb || !slices.Equal(a.Events, b.Events) {
			t.Fatal("two replays of one log diverged")
		}
	}
	if a.L3.Stats() != rec.L3.Stats() || b.L3.Stats() != rec.L3.Stats() {
		t.Fatalf("replayed L3 %+v / %+v, recorded %+v", a.L3.Stats(), b.L3.Stats(), rec.L3.Stats())
	}
}

// TestFilterLogRejectsWideLines pins the 32-bit writeback guard: a
// dirty line whose address does not fit the log panics instead of
// being truncated.
func TestFilterLogRejectsWideLines(t *testing.T) {
	// Direct-mapped levels of 512 sets: the lines below share one set,
	// and their tags still fit the packed tag width.
	h := &Hierarchy{
		L1: New("l1", 512*LineSize, 1),
		L2: New("l2", 512*LineSize, 1),
		L3: New("l3", 512*LineSize, 1),
	}
	h.Record(NewFilterLog(0))
	wide := uint64(FilterLines) + 1
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "filter log") {
			t.Fatalf("recovered %q, want the filter log's guard", msg)
		}
	}()
	// Each dirty line pushes the previous one a level down; the fourth
	// writes the wide line back to memory.
	for i := uint64(0); i < 4; i++ {
		h.Access(wide+512*i, true)
	}
}

// sharedHierarchies builds n tiny hierarchies over one shared L3.
func sharedHierarchies(n int) []*Hierarchy {
	l3 := New("l3", 16*LineSize, 2)
	hs := make([]*Hierarchy, n)
	for i := range hs {
		hs[i] = tinyHierarchy()
		hs[i].L3 = l3
	}
	return hs
}

// interleave returns a schedule that steps through streams of the given
// lengths in an order drawn from r: entry k names the core whose next
// op is the schedule's k-th.
func interleave(r *rng.Rand, lens []int) []int {
	var sched []int
	for i, n := range lens {
		for range n {
			sched = append(sched, i)
		}
	}
	for k := len(sched) - 1; k > 0; k-- {
		j := r.Intn(k + 1)
		sched[k], sched[j] = sched[j], sched[k]
	}
	return sched
}

// recordPrivate runs streams under schedule sched on live hierarchies
// sharing one L3, recording each core's private log, and finishes the
// logs.
func recordPrivate(streams [][]filterOp, sched []int) []*PrivateLog {
	hs := sharedHierarchies(len(streams))
	logs := make([]*PrivateLog, len(streams))
	for i, h := range hs {
		logs[i] = NewPrivateLog(len(streams[i]))
		h.RecordPrivate(logs[i])
	}
	next := make([]int, len(streams))
	for _, c := range sched {
		op := streams[c][next[c]]
		next[c]++
		hs[c].Access(op.line, op.write)
	}
	for _, l := range logs {
		l.Finish()
	}
	return logs
}

// checkPrivateReplay runs streams under schedule sched twice, on live
// hierarchies and on hierarchies replaying logs, and requires the same
// level, events and L3 counters after every op and the same L3 contents
// at the end. Both reset their counters a third of the way in, like the
// simulator's warmup reset. The replaying L1s must stay untouched.
func checkPrivateReplay(t *testing.T, streams [][]filterOp, sched []int, logs []*PrivateLog) {
	t.Helper()
	live, play := sharedHierarchies(len(streams)), sharedHierarchies(len(streams))
	for i, h := range play {
		h.ReplayPrivate(logs[i])
	}
	next := make([]int, len(streams))
	for k, c := range sched {
		if k == len(sched)/3 {
			for i := range live {
				live[i].ResetStats()
				play[i].ResetStats()
			}
		}
		op := streams[c][next[c]]
		next[c]++
		want := live[c].Access(op.line, op.write)
		got := play[c].Access(op.line, op.write)
		if got != want || !slices.Equal(play[c].Events, live[c].Events) || play[c].L3.Stats() != live[c].L3.Stats() {
			t.Fatalf("op %d (core %d, %+v): replay level %d events %v L3 %+v; live level %d events %v L3 %+v",
				k, c, op, got, play[c].Events, play[c].L3.Stats(), want, live[c].Events, live[c].L3.Stats())
		}
	}
	if !slices.Equal(play[0].L3.data, live[0].L3.data) {
		t.Fatal("replayed L3 contents differ from the live L3's")
	}
	for c, h := range play {
		if h.L1.Stats().Accesses() != 0 || h.L2.Stats().Accesses() != 0 {
			t.Fatalf("core %d: replay touched the private levels", c)
		}
	}
}

// TestPrivateReplayMatchesLive records four cores' private logs under
// one interleave and replays them under another: the shared L3 must
// come out as a live run under the second interleave, op by op. The
// streams must exercise the widest op, two L3 installs.
func TestPrivateReplayMatchesLive(t *testing.T) {
	r := rng.New(11)
	streams := make([][]filterOp, 4)
	lens := make([]int, len(streams))
	for i := range streams {
		streams[i] = randomOps(uint64(20+i), 8000, 96)
		lens[i] = len(streams[i])
	}
	logs := recordPrivate(streams, interleave(r, lens))
	widest := 0
	for _, l := range logs {
		for _, op := range unpack(l.ops) {
			widest = max(widest, int(op>>2))
		}
	}
	if widest != 2 {
		t.Fatalf("widest op installed %d lines into L3; want 2 to cover the field", widest)
	}
	checkPrivateReplay(t, streams, interleave(r, lens), logs)
}

// FuzzPrivateReplayMatchesLive: 2-4 cores' arbitrary op streams,
// recorded under the order the input lists them and replayed under an
// interleave drawn from seed, must match a live run under that
// interleave. This is the interleave independence the multi-core
// cache filter rests on.
func FuzzPrivateReplayMatchesLive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(1))
	f.Add(bytes.Repeat([]byte{0x81, 0x13, 0x42, 0xc7, 0x05, 0xfe}, 200), uint64(2))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f, 0x80}, 300), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%3
		streams := make([][]filterOp, n)
		var rec []int
		// Each op is two bytes: core, write bit and the line's high
		// bits, then its low byte (lines 0-511, so cores overlap).
		for k := 1; k+1 < len(data); k += 2 {
			c := int(data[k]) % n
			op := filterOp{uint64(data[k]>>3&1)<<8 | uint64(data[k+1]), data[k]&0x80 != 0}
			streams[c] = append(streams[c], op)
			rec = append(rec, c)
		}
		lens := make([]int, n)
		for i, s := range streams {
			lens[i] = len(s)
		}
		checkPrivateReplay(t, streams, interleave(rng.New(seed), lens), recordPrivate(streams, rec))
	})
}

// TestPrivateLogRejectsWideLines pins the private log's 32-bit guard: a
// dirty line installed into L3 whose address does not fit panics
// instead of being truncated.
func TestPrivateLogRejectsWideLines(t *testing.T) {
	h := &Hierarchy{
		L1: New("l1", 512*LineSize, 1),
		L2: New("l2", 512*LineSize, 1),
		L3: New("l3", 512*LineSize, 1),
	}
	h.RecordPrivate(NewPrivateLog(0))
	wide := uint64(FilterLines) + 1
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "private log") {
			t.Fatalf("recovered %q, want the private log's guard", msg)
		}
	}()
	// The third dirty line pushes the first out of L2 into L3.
	for i := uint64(0); i < 3; i++ {
		h.Access(wide+512*i, true)
	}
}

// unpack returns every code of p in op order.
func unpack(p *packedOps) []uint8 {
	codes := make([]uint8, p.n)
	var c opCursor
	for i := range codes {
		codes[i] = p.next(&c)
	}
	return codes
}

// TestPackedOpsRoundTrip packs code sequences with none, one, three and
// many distinct codes, uniform and skewed, and requires each to unpack
// to itself in no more than a byte per op, and replay to stop at the
// end.
func TestPackedOpsRoundTrip(t *testing.T) {
	r := rng.New(5)
	skewed := make([]uint8, 9999)
	for i := range skewed {
		skewed[i] = uint8(r.Intn(4))
		if r.Bool(0.1) {
			skewed[i] = uint8(r.Intn(256))
		}
	}
	uniform := make([]uint8, 4000) // over every one-core code
	for i := range uniform {
		uniform[i] = uint8(r.Intn(140))
	}
	for name, codes := range map[string][]uint8{
		"empty":   {},
		"one":     {7},
		"three":   {9, 9, 2, 200, 2, 9, 9},
		"skewed":  skewed,
		"uniform": uniform,
	} {
		p := packOps(codes)
		if got := unpack(p); !slices.Equal(got, codes) {
			t.Fatalf("%s: unpacked %v..., packed %v...", name, got[:min(len(got), 8)], codes[:min(len(codes), 8)])
		}
		if size := len(p.syms) + len(p.rare); size > len(codes) {
			t.Fatalf("%s: %d ops packed into %d bytes at width %d", name, len(codes), size, p.width)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "past the log's end") {
					t.Fatalf("%s: reading past the end recovered %q", name, msg)
				}
			}()
			c := opCursor{op: len(codes)}
			p.next(&c)
		}()
	}
}
