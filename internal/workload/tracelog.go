package workload

import (
	"sync/atomic"

	"compresso/internal/compress"
)

// OpStream is the operation source the simulators consume: either the
// generating Trace or a TraceReplay over a recorded log. Both yield
// byte-identical op sequences and image mutations for the same
// (profile, seed, totalOps).
type OpStream interface {
	Next(*Op)
	Image() *Image
}

// logOp is one recorded trace operation.
type logOp struct {
	lineAddr uint64
	nonMem   int32
	write    bool
}

// TraceLog is one core's recorded op stream: the full operation
// sequence plus every store's post-store line value. A comparison run
// over N systems records the log once and replays it N times, so the
// trace RNG, the store mutation kernels and (via the shared size
// slots) the recompression of stored lines run once instead of once
// per system.
type TraceLog struct {
	prof     Profile
	seed     uint64
	totalOps uint64
	ops      []logOp
	data     []byte // store k's post-store value at [k*LineSize:(k+1)*LineSize]

	// storeSizes[k] is a cross-replay shared memo slot for the
	// compressed size of store k's value under sizeCodec (-1 until
	// computed). Accessed atomically: replays of different systems may
	// run concurrently, and whichever sizes a given store value first
	// publishes it — the value is content-determined, so every replay
	// would publish the same number and the race is outcome-free.
	storeSizes []int32
	sizeCodec  string
}

// RecordTrace runs a full trace over img — which it mutates, so pass a
// throwaway clone — and records every op and store value. codec names
// the compression codec whose sizes the replays may share.
func RecordTrace(img *Image, prof Profile, seed uint64, totalOps uint64, codec compress.Codec) *TraceLog {
	tr := NewTraceOn(img, prof, seed, totalOps)
	lg := &TraceLog{prof: prof, seed: seed, totalOps: totalOps, sizeCodec: codec.Name()}
	lg.ops = make([]logOp, totalOps)
	lg.data = make([]byte, 0, totalOps/2*compress.LineSize)
	var op Op
	for i := uint64(0); i < totalOps; i++ {
		tr.Next(&op)
		lg.ops[i] = logOp{lineAddr: op.LineAddr, nonMem: int32(op.NonMemInstrs), write: op.Write}
		if op.Write {
			lg.data = append(lg.data, img.Line(op.LineAddr)...)
		}
	}
	lg.storeSizes = make([]int32, len(lg.data)/compress.LineSize)
	for i := range lg.storeSizes {
		lg.storeSizes[i] = -1
	}
	return lg
}

// Ops returns the recorded operation count.
func (lg *TraceLog) Ops() uint64 { return lg.totalOps }

// ReplayOver returns an OpStream replaying the log over an overlay
// view of master (the fully materialized image the recording started
// from). The overlay shares master's page bytes read-only and serves
// stored-to lines from the log's recorded values, so starting a replay
// copies no page data at all; master itself is never mutated and can
// back any number of concurrent replays.
func (lg *TraceLog) ReplayOver(master *Image) *TraceReplay {
	return &TraceReplay{log: lg, img: master.overlay(lg)}
}

// TraceReplay feeds a recorded TraceLog back as an OpStream.
type TraceReplay struct {
	log   *TraceLog
	img   *Image
	idx   uint64
	store int32
}

// Image returns the replay's backing image.
func (t *TraceReplay) Image() *Image { return t.img }

// Next fills op with the next recorded operation. For writes it flips
// the overlay's line to the recorded store value — a single index
// update, no byte copying.
func (t *TraceReplay) Next(op *Op) {
	lo := &t.log.ops[t.idx]
	t.idx++
	op.NonMemInstrs = int(lo.nonMem)
	op.LineAddr = lo.lineAddr
	op.Write = lo.write
	if lo.write {
		t.img.noteSharedStore(lo.lineAddr, t.store)
		t.store++
	}
}

// sharedStoreSize resolves a line's compressed size through the log's
// shared slots when the line's current content is a recorded store
// value and codec is the one the slots hold. Returns (0, false) when no
// shared slot applies.
func (im *Image) sharedStoreSize(codec compress.Codec, lineAddr uint64) (int, bool) {
	if im.share == nil || im.share.sizeCodec != codec.Name() {
		return 0, false
	}
	k := im.lastStore[lineAddr]
	if k <= 0 {
		return 0, false
	}
	slot := &im.share.storeSizes[k-1]
	n := atomic.LoadInt32(slot)
	if n < 0 {
		n = int32(compress.SizeOnly(codec, im.Line(lineAddr)))
		atomic.StoreInt32(slot, n)
	}
	return int(n), true
}
