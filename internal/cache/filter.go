package cache

import (
	"fmt"
	"slices"
)

// A FilterLog is the recorded outcome of one op sequence through a
// Hierarchy: for each Access, the level that served it, the L3
// counter deltas it caused and the dirty lines it wrote back to
// memory. That outcome depends only on the (line, write) sequence and
// the cache geometry, so a log recorded on one run replays exactly
// into any hierarchy of the same geometry fed the same sequence. All
// single-core runs of one op stream share one pass through L1/L2/L3
// this way.
//
// One Access touches L3 at most three times (the demand access plus
// dirty cascades from L1 and L2), so its outcome is a tuple (level, L3
// hits, misses, evictions, writebacks) with hits + misses <= 3,
// evictions <= misses (only a miss evicts) and writebacks <= evictions
// (only a dirty victim is written back). Only 4 x 35 = 140 tuples meet
// those rules, so an op's outcome is a one-byte code: the tuple's index
// in filterTuple. A recording appends codes, and Finish packs them
// (packedOps). The writeback line addresses go to a separate uint32
// slice in issue order. An LLC fill is always the Access's own line and
// its last event, so level 4 implies it and it is not stored.
type FilterLog struct {
	codes []uint8    // while recording
	ops   *packedOps // once finished
	wbs   []uint32
}

// A tuple is held unpacked in 10 bits, 2 per field:
//
//	bits 0-1  level-1
//	bits 2-3  L3 hits
//	bits 4-5  L3 misses
//	bits 6-7  L3 evictions
//	bits 8-9  L3 writebacks (= dirty lines written to memory)
//
// filterTuple maps each code to its tuple and filterCode each possible
// tuple to its code (filterNoCode for the 1024 - 140 that cannot occur).
var (
	filterTuple [256]uint16
	filterCode  [1 << 10]uint8
)

const filterNoCode = 0xff

func init() {
	for t := range filterCode {
		filterCode[t] = filterNoCode
	}
	n := 0
	for level := range uint16(4) {
		for misses := range uint16(4) {
			for hits := uint16(0); hits+misses <= 3; hits++ {
				for evictions := range misses + 1 {
					for writebacks := range evictions + 1 {
						t := level | hits<<2 | misses<<4 | evictions<<6 | writebacks<<8
						filterTuple[n], filterCode[t] = t, uint8(n)
						n++
					}
				}
			}
		}
	}
}

// FilterLines bounds the line addresses a FilterLog can hold: a
// machine whose line addresses reach it must run live.
const FilterLines = 1 << 32

// NewFilterLog returns an empty log with room for ops Accesses.
func NewFilterLog(ops int) *FilterLog { return &FilterLog{codes: make([]uint8, 0, ops)} }

// Finish packs a completed recording for replay. Only a finished log
// replays, and a finished log records nothing more.
func (l *FilterLog) Finish() { l.ops, l.codes = packOps(l.codes), nil }

// add appends one live Access: its level, the L3 counters around it,
// and its events. An outcome outside the 140 packable tuples panics.
func (l *FilterLog) add(level int, before, after Stats, events []MemoryEvent) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	evictions, writebacks := after.Evictions-before.Evictions, after.Writebacks-before.Writebacks
	code := uint8(filterNoCode)
	if level >= 1 && level <= 4 && max(hits, misses, evictions, writebacks) <= 3 {
		code = filterCode[uint64(level-1)|hits<<2|misses<<4|evictions<<6|writebacks<<8]
	}
	if code == filterNoCode {
		panic(fmt.Sprintf("cache: filter log cannot pack level %d with L3 deltas of %d hits, %d misses, %d evictions, %d writebacks",
			level, hits, misses, evictions, writebacks))
	}
	l.codes = append(l.codes, code)
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
// its outcome to log, which must not be finished.
func (h *Hierarchy) Record(log *FilterLog) {
	h.rec, h.play, h.privRec, h.privPlay = log, nil, nil, nil
}

// Replay makes every later Access replay log from its start instead of
// running the caches: each returns the recorded level, fills Events and
// advances the L3 counters exactly as the recorded Access did, at a
// fraction of the cost. The cache contents and the L1/L2 counters stay
// untouched. The log must be finished. The caller must feed the op
// sequence the log was recorded from, into a hierarchy of the same
// geometry; replaying past the log's end panics.
func (h *Hierarchy) Replay(log *FilterLog) {
	h.rec, h.play, h.privRec, h.privPlay = nil, log, nil, nil
	h.playOp, h.playWB = opCursor{}, 0
}

// replay is Access on a replaying hierarchy.
func (h *Hierarchy) replay(lineAddr uint64) int {
	op := filterTuple[h.play.ops.next(&h.playOp)]
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
// down by L1's victim, one displaced by the L2 fill), so an op's
// outcome is a one-byte code:
//
//	bits 0-1  level code: 0 L1 hit, 1 L2 hit, 2 sent to L3
//	bits 2-3  dirty lines installed into L3 before the demand access
//
// A recording appends codes, and Finish packs them (packedOps). The
// installed line addresses go to a separate uint32 slice in issue
// order.
type PrivateLog struct {
	codes    []uint8    // while recording
	ops      *packedOps // once finished
	installs []uint32
}

// NewPrivateLog returns an empty log with room for ops Accesses.
func NewPrivateLog(ops int) *PrivateLog { return &PrivateLog{codes: make([]uint8, 0, ops)} }

// Finish packs a completed recording for replay. Only a finished log
// replays, and a finished log records nothing more.
func (l *PrivateLog) Finish() { l.ops, l.codes = packOps(l.codes), nil }

// add appends one live Access: its level and how many L3 installs it
// made (already appended by install).
func (l *PrivateLog) add(level, installs int) {
	l.codes = append(l.codes, uint8(min(level, 3)-1)|uint8(installs)<<2)
}

// install appends one dirty line written from L2 into L3.
func (l *PrivateLog) install(lineAddr uint64) {
	if lineAddr >= FilterLines {
		panic(fmt.Sprintf("cache: private log cannot hold line address %#x", lineAddr))
	}
	l.installs = append(l.installs, uint32(lineAddr))
}

// RecordPrivate makes every later Access run on the live caches and
// append its private-level outcome to log, which must not be finished.
func (h *Hierarchy) RecordPrivate(log *PrivateLog) {
	h.rec, h.play, h.privRec, h.privPlay = nil, nil, log, nil
}

// ReplayPrivate makes every later Access replay log from its start in
// place of L1 and L2: each applies the recorded installs to L3, then,
// when the op was sent to L3, runs the demand access there live. The
// level, Events, L3 contents and L3 counters come out exactly as a live
// Access's under any interleave with other hierarchies sharing L3; L1,
// L2 and their counters stay untouched. The log must be finished. The
// caller must feed the op sequence the log was recorded from; replaying
// past the log's end panics.
func (h *Hierarchy) ReplayPrivate(log *PrivateLog) {
	h.rec, h.play, h.privRec, h.privPlay = nil, nil, nil, log
	h.playOp, h.playWB = opCursor{}, 0
}

// replayPrivate is Access on a hierarchy replaying a PrivateLog.
func (h *Hierarchy) replayPrivate(lineAddr uint64) int {
	op := h.privPlay.ops.next(&h.playOp)
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

// packedOps is a finished log's op codes as symbols of width bits,
// 8/width to a byte with op i at bits width*(i%(8/width)). The escape
// symbol, 1<<width - 1, stands for the next code in rare, which holds
// the codes outside common in op order; any other symbol s stands for
// common[s]. A log's outcomes are skewed, so packOps gives the commonest
// codes symbols and picks the width that packs the log smallest; at
// width 8 every code has a symbol, so no log takes more than a byte per
// op. The quick sweep's logs pack at widths 1 and 2 into 0.30 bytes per
// op, and the full sweep's at widths 1 to 4 into 0.36.
type packedOps struct {
	n      int  // ops
	width  uint // 1, 2, 4 or 8
	syms   []uint8
	common [255]uint8
	rare   []uint8
}

// opCursor is a replay's position in a packedOps: the next op and the
// next rare code.
type opCursor struct{ op, rare int }

// packOps packs codes at the width that takes the fewest bytes.
func packOps(codes []uint8) *packedOps {
	var count [256]int
	for _, c := range codes {
		count[c]++
	}
	// byCount lists the codes that occur, commonest first (ties to the
	// smaller code); covered[k] counts the ops of its first k codes.
	var byCount []uint8
	for c := range count {
		if count[c] > 0 {
			byCount = append(byCount, uint8(c))
		}
	}
	slices.SortStableFunc(byCount, func(a, b uint8) int { return count[b] - count[a] })
	covered := make([]int, len(byCount)+1)
	for k, c := range byCount {
		covered[k+1] = covered[k] + count[c]
	}
	p := &packedOps{n: len(codes)}
	best := -1
	for _, w := range []uint{1, 2, 4, 8} {
		k := min(1<<w-1, len(byCount))
		if size := (len(codes)*int(w)+7)/8 + len(codes) - covered[k]; best < 0 || size < best {
			best, p.width = size, w
		}
	}
	escape := uint8(1<<p.width - 1)
	var sym [256]uint8
	for c := range sym {
		sym[c] = escape
	}
	k := min(int(escape), len(byCount))
	for s, c := range byCount[:k] {
		p.common[s], sym[c] = c, uint8(s)
	}
	p.syms = make([]uint8, (len(codes)*int(p.width)+7)/8)
	p.rare = make([]uint8, 0, len(codes)-covered[k])
	for i, c := range codes {
		bit := uint(i) * p.width
		p.syms[bit/8] |= sym[c] << (bit % 8)
		if sym[c] == escape {
			p.rare = append(p.rare, c)
		}
	}
	return p
}

// next returns the code of the op at c and advances c past it.
func (p *packedOps) next(c *opCursor) uint8 {
	if c.op >= p.n {
		panic("cache: replay past the log's end")
	}
	bit := uint(c.op) * p.width
	s := p.syms[bit/8] >> (bit % 8) & (1<<p.width - 1)
	c.op++
	if s < 1<<p.width-1 {
		return p.common[s]
	}
	code := p.rare[c.rare]
	c.rare++
	return code
}
