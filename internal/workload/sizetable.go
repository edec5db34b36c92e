package workload

import (
	"fmt"
	"sync"

	"compresso/internal/compress"
)

// Before its first store an image's content is a pure function of its
// (post-scaling) profile and seed, so every image built from one pair
// has the same per-line compressed sizes. A sweep binds many such
// images — each system's cycle run, the PrepareAssets masters, the
// capacity trackers — and they all share one table per (profile,
// seed, codec), sized once per process. Images point their memo at
// the table read-only and copy it on their first store (noteStore).

// sizeKey identifies a pristine size table.
type sizeKey struct {
	prof  string // the profile rendered with %#v, so every field counts
	seed  uint64
	codec string // Codec.Name
}

// sizeKey returns im's table key under codec.
func (im *Image) sizeKey(codec compress.Codec) sizeKey {
	return sizeKey{fmt.Sprintf("%#v", im.prof), im.seed, codec.Name()}
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
