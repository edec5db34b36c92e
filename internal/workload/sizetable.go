package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"compresso/internal/compress"
	"compresso/internal/memctl"
)

// Before its first store an image's content is a pure function of its
// (post-scaling) profile and seed, so every image built from one pair
// has the same per-line compressed sizes. A sweep binds many such
// images — each system's cycle run, the PrepareAssets masters, the
// capacity trackers — and they all share one table per (profile,
// seed, codec), sized once per process. Images point their memo at
// the table read-only and copy it on their first store (noteStore).

// imageKey identifies an image's pristine content.
type imageKey struct {
	prof string // the profile rendered with %#v, so every field counts
	seed uint64
}

// sizeKey identifies a pristine size table.
type sizeKey struct {
	imageKey
	codec string // Codec.Name
}

// imageKey returns im's pristine-content key.
func (im *Image) imageKey() imageKey {
	return imageKey{fmt.Sprintf("%#v", im.prof), im.seed}
}

// sizeKey returns im's table key under codec.
func (im *Image) sizeKey(codec compress.Codec) sizeKey {
	return sizeKey{im.imageKey(), codec.Name()}
}

// sizeTable is one key's table. mu is held for the whole fill, so
// concurrent binders of one key wait for it rather than repeat it. The
// fill runs only the codec's sizing over the filler's own bytes, which
// never binds an image, so holding mu across it cannot deadlock.
type sizeTable struct {
	mu    sync.Mutex
	sizes []int16 // nil until a fill succeeds; read-only from then on
}

var sizeTables = struct {
	sync.Mutex
	m map[sizeKey]*sizeTable
}{m: make(map[sizeKey]*sizeTable)}

// pristineSizes returns the shared size table for im's key, filling it
// from im's own bytes over jobs workers when no image has published it
// yet. im must never have been stored to. A fill that panics publishes
// nothing, and the next binder fills again.
func pristineSizes(im *Image, codec compress.Codec, jobs int) []int16 {
	k := im.sizeKey(codec)
	sizeTables.Lock()
	tab := sizeTables.m[k]
	if tab == nil {
		tab = new(sizeTable)
		sizeTables.m[k] = tab
	}
	sizeTables.Unlock()

	tab.mu.Lock()
	defer tab.mu.Unlock()
	if tab.sizes == nil {
		sizes := unknownSizes(im.Lines())
		im.Materialize(jobs)
		im.sizeInto(codec, sizes, jobs)
		tab.sizes = sizes
	}
	return tab.sizes
}

// The dmc and mxt baselines price cold data in 1 KB LZ blocks
// (memctl.LZBlockSizer). A block's pristine size is as much a function
// of (profile, seed) as a line's, so the same images share one block
// table per key. It fills lazily, one entry at a time: LZ pricing is
// costly and a run touches only some blocks, so no image prices the
// whole table up front. Entry b holds block b's size plus one, 0 until
// some image prices the block from bytes no store has reached;
// concurrent pricers of one block store the same number.
var blockTables = struct {
	sync.Mutex
	m map[imageKey][]atomic.Uint32
}{m: make(map[imageKey][]atomic.Uint32)}

// pristineBlocks returns the shared block table for im's key.
func pristineBlocks(im *Image) []atomic.Uint32 {
	k := im.imageKey()
	blockTables.Lock()
	defer blockTables.Unlock()
	tab := blockTables.m[k]
	if tab == nil {
		tab = make([]atomic.Uint32, im.Lines()/memctl.LZBlockLines)
		blockTables.m[k] = tab
	}
	return tab
}
