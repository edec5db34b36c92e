package cache

import (
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

// TestFilterReplayMatchesLive replays a recorded op sequence into a
// fresh hierarchy and requires, after every op, the level, the events
// and the L3 counters of a live hierarchy fed the same ops, across a
// mid-run ResetStats like the simulator's warmup reset.
func TestFilterReplayMatchesLive(t *testing.T) {
	ops := randomOps(7, 30000, 128)
	log := NewFilterLog(len(ops))
	rec := tinyHierarchy()
	rec.Record(log)
	for _, op := range ops {
		rec.Access(op.line, op.write)
	}

	live, play := tinyHierarchy(), tinyHierarchy()
	play.Replay(log)
	var maxL3, maxWB uint64
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
	if maxL3 != 3 || maxWB != 3 {
		t.Fatalf("widest op: %d L3 accesses, %d writebacks; want 3 and 3 to cover the field width", maxL3, maxWB)
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
