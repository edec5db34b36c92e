package cache

import "fmt"

// A FilterLog is the recorded outcome of one op sequence through a
// Hierarchy: for each Access, the level that served it, the L3
// counter deltas it caused and the dirty lines it wrote back to
// memory. That outcome depends only on the (line, write) sequence and
// the cache geometry, so a log recorded on one run replays exactly
// into any hierarchy of the same geometry fed the same sequence. The
// systems of a single-core comparison share one pass through L1/L2/L3
// this way.
//
// One Access touches L3 at most three times (the demand access plus
// dirty cascades from L1 and L2), so each delta fits in 2 bits and an
// op packs into 10 bits of a uint16:
//
//	bits 0-1  level-1
//	bits 2-3  L3 hits
//	bits 4-5  L3 misses
//	bits 6-7  L3 evictions
//	bits 8-9  L3 writebacks (= dirty lines written to memory)
//
// The writeback line addresses go to a separate uint32 slice in issue
// order. An LLC fill is always the Access's own line and its last
// event, so level 4 implies it and it is not stored.
type FilterLog struct {
	ops []uint16
	wbs []uint32
}

// FilterLines bounds the line addresses a FilterLog can hold: a
// machine whose line addresses reach it must run live.
const FilterLines = 1 << 32

// NewFilterLog returns an empty log with room for ops Accesses.
func NewFilterLog(ops int) *FilterLog { return &FilterLog{ops: make([]uint16, 0, ops)} }

// add appends one live Access: its level, the L3 counters around it,
// and its events.
func (l *FilterLog) add(level int, before, after Stats, events []MemoryEvent) {
	l.ops = append(l.ops, uint16(level-1)|
		uint16(after.Hits-before.Hits)<<2|
		uint16(after.Misses-before.Misses)<<4|
		uint16(after.Evictions-before.Evictions)<<6|
		uint16(after.Writebacks-before.Writebacks)<<8)
	for _, ev := range events {
		if !ev.Write {
			continue
		}
		if ev.LineAddr >= FilterLines {
			panic(fmt.Sprintf("cache: filter log cannot hold line address %#x", ev.LineAddr))
		}
		l.wbs = append(l.wbs, uint32(ev.LineAddr))
	}
}

// Record makes every later Access run on the live caches and append
// its outcome to log.
func (h *Hierarchy) Record(log *FilterLog) {
	h.rec, h.play, h.privRec, h.privPlay = log, nil, nil, nil
}

// Replay makes every later Access replay log from its start instead of
// running the caches: each returns the recorded level, fills Events and
// advances the L3 counters exactly as the recorded Access did, at a
// fraction of the cost. The cache contents and the L1/L2 counters stay
// untouched. The caller must feed the op sequence the log was recorded
// from, into a hierarchy of the same geometry; replaying past the
// log's end panics.
func (h *Hierarchy) Replay(log *FilterLog) {
	h.rec, h.play, h.privRec, h.privPlay = nil, log, nil, nil
	h.playOp, h.playWB = 0, 0
}

// replay is Access on a replaying hierarchy.
func (h *Hierarchy) replay(lineAddr uint64) int {
	op := h.play.ops[h.playOp]
	h.playOp++
	s := &h.L3.stats
	s.Hits += uint64(op >> 2 & 3)
	s.Misses += uint64(op >> 4 & 3)
	s.Evictions += uint64(op >> 6 & 3)
	n := int(op >> 8 & 3)
	s.Writebacks += uint64(n)
	h.Events = h.Events[:0]
	for _, a := range h.play.wbs[h.playWB : h.playWB+n] {
		h.Events = append(h.Events, MemoryEvent{LineAddr: uint64(a), Write: true})
	}
	h.playWB += n
	level := int(op&3) + 1
	if level == 4 {
		h.Events = append(h.Events, MemoryEvent{LineAddr: lineAddr})
	}
	return level
}

// A PrivateLog is the recorded outcome of one op sequence through a
// Hierarchy's private levels. The hierarchy is non-inclusive and L3
// never invalidates above itself, so what L1 and L2 do with an Access,
// and the L3 operations they issue, depend only on the hierarchy's own
// (line, write) sequence, never on a shared L3 or on the other cores
// reaching it. The systems of a multi-core comparison share one pass
// through each core's L1/L2 this way, while their shared L3 runs live
// in whatever order their own core clocks dictate.
//
// An Access installs at most two dirty L2 victims into L3 (one pushed
// down by L1's victim, one displaced by the L2 fill), so an op packs
// into one byte:
//
//	bits 0-1  level code: 0 L1 hit, 1 L2 hit, 2 sent to L3
//	bits 2-3  dirty lines installed into L3 before the demand access
//
// The installed line addresses go to a separate uint32 slice in issue
// order.
type PrivateLog struct {
	ops      []uint8
	installs []uint32
}

// NewPrivateLog returns an empty log with room for ops Accesses.
func NewPrivateLog(ops int) *PrivateLog { return &PrivateLog{ops: make([]uint8, 0, ops)} }

// add appends one live Access: its level and how many L3 installs it
// made (already appended by install).
func (l *PrivateLog) add(level, installs int) {
	l.ops = append(l.ops, uint8(min(level, 3)-1)|uint8(installs)<<2)
}

// install appends one dirty line written from L2 into L3.
func (l *PrivateLog) install(lineAddr uint64) {
	if lineAddr >= FilterLines {
		panic(fmt.Sprintf("cache: private log cannot hold line address %#x", lineAddr))
	}
	l.installs = append(l.installs, uint32(lineAddr))
}

// RecordPrivate makes every later Access run on the live caches and
// append its private-level outcome to log.
func (h *Hierarchy) RecordPrivate(log *PrivateLog) {
	h.rec, h.play, h.privRec, h.privPlay = nil, nil, log, nil
}

// ReplayPrivate makes every later Access replay log from its start in
// place of L1 and L2: each applies the recorded installs to L3, then,
// when the op was sent to L3, runs the demand access there live. The
// level, Events, L3 contents and L3 counters come out exactly as a live
// Access's under any interleave with other hierarchies sharing L3; L1,
// L2 and their counters stay untouched. The caller must feed the op
// sequence the log was recorded from; replaying past the log's end
// panics.
func (h *Hierarchy) ReplayPrivate(log *PrivateLog) {
	h.rec, h.play, h.privRec, h.privPlay = nil, nil, nil, log
	h.playOp, h.playWB = 0, 0
}

// replayPrivate is Access on a hierarchy replaying a PrivateLog.
func (h *Hierarchy) replayPrivate(lineAddr uint64) int {
	op := h.privPlay.ops[h.playOp]
	h.playOp++
	h.Events = h.Events[:0]
	if n := int(op >> 2); n > 0 {
		for _, a := range h.privPlay.installs[h.playWB : h.playWB+n] {
			h.installDirty(h.L3, uint64(a))
		}
		h.playWB += n
	}
	if code := int(op & 3); code < 2 {
		return code + 1
	}
	return h.accessL3(lineAddr)
}
