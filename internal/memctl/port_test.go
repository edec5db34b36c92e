package memctl

import (
	"testing"

	"compresso/internal/dram"
	"compresso/internal/obs"
)

// refAccess is one access replayed on a reference memory: its
// completion cycle and breakdown.
type refAccess struct{ done, queue, service uint64 }

// replay issues lines at start on m and returns each access's timing,
// for the cases to name the expected dominant.
func replay(m *dram.Memory, start uint64, write bool, lines []uint64) []refAccess {
	out := make([]refAccess, len(lines))
	for i, l := range lines {
		out[i].done = m.Access(start, l, write)
		out[i].queue, out[i].service = m.LastBreakdown()
	}
	return out
}

// ledgerTotals returns the snapshot's exposed and hidden cycles of c.
func ledgerTotals(a *obs.Attribution, c obs.Component) (exposed, hidden uint64) {
	s := a.Snapshot().Components[c]
	return s.ExposedCycles, s.HiddenCycles
}

func twoChannels() dram.Config {
	cfg := dram.DDR4_2666()
	cfg.Channels = 2
	return cfg
}

func TestPortRead(t *testing.T) {
	const start = 100
	block := make([]uint64, 16)
	for i := range block {
		block[i] = uint64(40 + i)
	}
	cases := []struct {
		name     string
		cfg      dram.Config
		fifo     int      // prefetch buffer capacity
		buffered []uint64 // pushed into the buffer before the read
		lines    []uint64
		issued   []bool // per line: reached DRAM (false: prefetch hit)
		dominant int    // index of the exposed access; -1 when none issued
		prime    uint64 // with primeAt: a line read before, outside the port
		primeAt  uint64
	}{
		{"one line", dram.DDR4_2666(), 8, nil, []uint64{7}, []bool{true}, 0, 0, 0},
		{"split pair", dram.DDR4_2666(), 8, nil, []uint64{7, 8}, []bool{true, true}, 1, 0, 0},
		{"prefetch hit on first half", dram.DDR4_2666(), 8, []uint64{7}, []uint64{7, 8}, []bool{false, true}, 1, 0, 0},
		{"prefetch hit on second half", dram.DDR4_2666(), 8, []uint64{8}, []uint64{7, 8}, []bool{true, false}, 0, 0, 0},
		{"prefetch hit on both halves", dram.DDR4_2666(), 8, []uint64{8, 7}, []uint64{7, 8}, []bool{false, false}, -1, 0, 0},
		// Lines 0 and 128 sit on different channels of twoChannels().
		// Reading line 1 one burst before start opens line 0's row and
		// holds its bus, so line 0 is a queued row hit completing at
		// the same cycle as line 128's unqueued row miss: equal
		// completion, different breakdowns.
		{"equal completion cycles", twoChannels(), 8, nil, []uint64{0, 128}, []bool{true, true}, 0, 1, start - 9},
		{"16-line cold block", dram.DDR4_2666(), 0, nil, block, []bool{true, true, true, true, true, true, true, true,
			true, true, true, true, true, true, true, true}, 15, 0, 0},
		{"zero-capacity FIFO", dram.DDR4_2666(), 0, []uint64{7, 8}, []uint64{7, 8}, []bool{true, true}, 1, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			mem, refMem := dram.New(tc.cfg), dram.New(tc.cfg)
			if tc.primeAt != 0 {
				mem.Access(tc.primeAt, tc.prime, false)
				refMem.Access(tc.primeAt, tc.prime, false)
			}
			p := NewPort(mem, &st, tc.fifo)
			for _, l := range tc.buffered {
				p.prefetch.Push(l)
			}
			a := obs.NewAttribution(0)
			p.SetAttribution(a)

			a.Begin(start, 0, false)
			done, queue, service := p.Read(start, tc.lines...)
			a.ExposedDRAM(queue, service)
			a.End(done)

			var issued []uint64
			var hits, reads, splits uint64
			for i, l := range tc.lines {
				switch {
				case !tc.issued[i]:
					hits++
				case i == 0:
					reads++
				default:
					splits++
				}
				if tc.issued[i] {
					issued = append(issued, l)
				}
			}
			if st.PrefetchHits != hits || st.DataReads != reads || st.SplitAccesses != splits {
				t.Fatalf("PrefetchHits %d DataReads %d SplitAccesses %d; want %d, %d, %d",
					st.PrefetchHits, st.DataReads, st.SplitAccesses, hits, reads, splits)
			}

			ref := replay(refMem, start, false, issued)
			want := refAccess{done: start}
			var hidden uint64
			k := 0
			for i := range tc.lines {
				if !tc.issued[i] {
					continue
				}
				if i == tc.dominant {
					want = ref[k]
				} else {
					hidden += ref[k].queue + ref[k].service
				}
				k++
			}
			for _, r := range ref {
				if r.done > want.done {
					t.Fatalf("case names a dominant completing at %d, but an access completes at %d", want.done, r.done)
				}
			}
			if tc.primeAt != 0 && (ref[0].done != ref[1].done || ref[0].queue == ref[1].queue) {
				t.Fatalf("setup: want equal completions with different breakdowns, got %+v", ref)
			}
			if done != want.done || queue != want.queue || service != want.service {
				t.Fatalf("Read = (%d, %d, %d), want (%d, %d, %d)", done, queue, service, want.done, want.queue, want.service)
			}
			if want.queue+want.service != done-start {
				t.Fatalf("dominant breakdown %d+%d does not span start..done (%d)", want.queue, want.service, done-start)
			}

			eq, hq := ledgerTotals(a, obs.CompDRAMQueue)
			es, hs := ledgerTotals(a, obs.CompDRAMService)
			esplit, hsplit := ledgerTotals(a, obs.CompSplit)
			if eq != want.queue || es != want.service || hq != 0 || hs != 0 {
				t.Fatalf("DRAM charges exposed %d+%d hidden %d+%d; want exposed %d+%d, none hidden",
					eq, es, hq, hs, want.queue, want.service)
			}
			if esplit != 0 || hsplit != hidden {
				t.Fatalf("split charges exposed %d hidden %d; want 0 and %d", esplit, hsplit, hidden)
			}
			if v := a.Violations(); v != 0 {
				t.Fatalf("%d conservation violations: %s", v, a.Snapshot().FirstViolation)
			}
			for _, l := range issued {
				if got := p.prefetch.Contains(l); got != (tc.fifo > 0) {
					t.Fatalf("line %d buffered = %v after the read, FIFO capacity %d", l, got, tc.fifo)
				}
			}
		})
	}
}

func TestPortWrite(t *testing.T) {
	const now = 200
	cases := []struct {
		name     string
		fifo     int
		buffered []uint64
		lines    []uint64
	}{
		{"one line", 8, nil, []uint64{7}},
		{"split posted write", 8, nil, []uint64{7, 8}},
		{"buffered lines still write", 8, []uint64{7, 8}, []uint64{7, 8}},
		{"zero-capacity FIFO", 0, nil, []uint64{7, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dram.DDR4_2666()
			var st Stats
			mem := dram.New(cfg)
			p := NewPort(mem, &st, tc.fifo)
			for _, l := range tc.buffered {
				p.prefetch.Push(l)
			}
			a := obs.NewAttribution(0)
			p.SetAttribution(a)

			a.Begin(now, 0, true)
			a.Posted()
			p.Write(now, tc.lines...)
			a.End(now)

			splits := uint64(len(tc.lines) - 1)
			if st.DataWrites != 1 || st.SplitAccesses != splits || st.DataReads != 0 || st.PrefetchHits != 0 {
				t.Fatalf("DataWrites %d SplitAccesses %d DataReads %d PrefetchHits %d; want 1, %d, 0, 0",
					st.DataWrites, st.SplitAccesses, st.DataReads, st.PrefetchHits, splits)
			}
			if got := mem.Stats().Writes; got != uint64(len(tc.lines)) {
				t.Fatalf("%d DRAM writes, want %d", got, len(tc.lines))
			}
			ref := replay(dram.New(cfg), now, true, tc.lines)
			var splitCycles uint64
			for _, r := range ref[1:] {
				splitCycles += r.queue + r.service
			}
			eq, hq := ledgerTotals(a, obs.CompDRAMQueue)
			es, hs := ledgerTotals(a, obs.CompDRAMService)
			esplit, hsplit := ledgerTotals(a, obs.CompSplit)
			if eq != 0 || es != 0 || esplit != 0 {
				t.Fatalf("posted write exposed %d+%d DRAM and %d split cycles", eq, es, esplit)
			}
			if hq != ref[0].queue || hs != ref[0].service || hsplit != splitCycles {
				t.Fatalf("hidden DRAM %d+%d split %d; want %d+%d and %d",
					hq, hs, hsplit, ref[0].queue, ref[0].service, splitCycles)
			}
			if v := a.Violations(); v != 0 {
				t.Fatalf("%d conservation violations: %s", v, a.Snapshot().FirstViolation)
			}
			buffered := map[uint64]bool{}
			for _, l := range tc.buffered {
				buffered[l] = tc.fifo > 0
			}
			for _, l := range tc.lines {
				if got := p.prefetch.Contains(l); got != buffered[l] {
					t.Fatalf("line %d buffered = %v after the write, want %v (writes leave the buffer alone)", l, got, buffered[l])
				}
			}
		})
	}
}

// TestPortOffPath pins the off-path and metadata accesses: Access
// counts and charges nothing, Hidden charges its component, a metadata
// read counts MetadataReads and leaves the charge to the caller, and a
// metadata writeback counts MetadataWrites charged hidden as md_fetch.
func TestPortOffPath(t *testing.T) {
	cfg := dram.DDR4_2666()
	var st Stats
	mem := dram.New(cfg)
	p := NewPort(mem, &st, 8)
	a := obs.NewAttribution(0)
	p.SetAttribution(a)
	ref := replay(dram.New(cfg), 0, false, []uint64{3, 900, 5, 6})

	if done, q, s := p.Access(0, 3, false); done != ref[0].done || q != ref[0].queue || s != ref[0].service {
		t.Fatalf("Access = (%d, %d, %d), want %+v", done, q, s, ref[0])
	}
	if done := p.Hidden(0, 900, false, obs.CompRepack); done != ref[1].done {
		t.Fatalf("Hidden done %d, want %d", done, ref[1].done)
	}
	if done := p.MetadataRead(0, 5); done != ref[2].done {
		t.Fatalf("MetadataRead done %d, want %d", done, ref[2].done)
	}
	p.MetadataWriteback(0, 6)

	if st != (Stats{MetadataReads: 1, MetadataWrites: 1}) {
		t.Fatalf("stats %+v, want one metadata read and one writeback", st)
	}
	if _, h := ledgerTotals(a, obs.CompRepack); h != ref[1].queue+ref[1].service {
		t.Fatalf("repack hidden %d, want %d", h, ref[1].queue+ref[1].service)
	}
	mdWrite := ref[3] // DRAM timing does not depend on the direction
	if e, h := ledgerTotals(a, obs.CompMDFetch); e != 0 || h != mdWrite.queue+mdWrite.service {
		t.Fatalf("md_fetch exposed %d hidden %d, want 0 and %d", e, h, mdWrite.queue+mdWrite.service)
	}
	if p.prefetch.Contains(3) || p.prefetch.Contains(5) {
		t.Fatal("an off-path access entered the prefetch buffer")
	}
}
