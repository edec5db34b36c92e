package workload

import (
	"slices"
	"sync"
	"testing"

	"compresso/internal/compress"
)

// Every test here uses a seed no other test in the package binds, and a
// test that needs its key's table empty drops it first, so the tests
// hold in any order and under -count.

// tableSizes returns the published table for an image's key, or nil.
func tableSizes(im *Image, codec compress.Codec) []int16 {
	sizeTables.Lock()
	tab := sizeTables.m[im.sizeKey(codec)]
	sizeTables.Unlock()
	if tab == nil {
		return nil
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.sizes
}

// dropSizeTable forgets an image's key, so the next binder fills again.
func dropSizeTable(im *Image, codec compress.Codec) {
	sizeTables.Lock()
	delete(sizeTables.m, im.sizeKey(codec))
	sizeTables.Unlock()
}

func sizeTestProfile(t testing.TB, name string, scale int) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Scale(p, scale)
}

// firstStoreChangingSize runs a trace over im until a store leaves its
// line at a compressed size other than the pristine one, and returns
// that line.
func firstStoreChangingSize(t *testing.T, im *Image, p Profile, seed uint64, codec compress.Codec) uint64 {
	t.Helper()
	ref := NewImage(p, seed)
	tr := NewTraceOn(im, p, seed, 100_000)
	var op Op
	for i := 0; i < 100_000; i++ {
		tr.Next(&op)
		if op.Write && compress.SizeOnly(codec, im.Line(op.LineAddr)) != compress.SizeOnly(codec, ref.Line(op.LineAddr)) {
			return op.LineAddr
		}
	}
	t.Fatal("no store changed a line's compressed size")
	return 0
}

// TestSizeTableMatchesFreshSizing is the differential check: whichever
// binder filled a key's table and however a later image bound it, every
// memo entry equals SizeOnly over a freshly generated image that never
// touched the table.
func TestSizeTableMatchesFreshSizing(t *testing.T) {
	codec := compress.BPC{}
	for _, name := range []string{"gamess", "sjeng", "h264ref", "perlbench", "astar"} {
		for _, scale := range []int{1, 16} {
			for _, seed := range []uint64{9101, 9102} {
				p := sizeTestProfile(t, name, scale)
				first, second := NewImage(p, seed), NewImage(p, seed)
				first.SizeLine(codec, 0) // fills the table serially
				second.SizeAll(codec, 2) // binds the filled table
				if !first.sharedSize || !second.sharedSize || &first.lineSize[0] != &second.lineSize[0] {
					t.Fatalf("%s/%d/%d: the two pristine images do not share one table", name, scale, seed)
				}
				fresh := NewImage(p, seed)
				for l := uint64(0); l < fresh.Lines(); l++ {
					if want := compress.SizeOnly(codec, fresh.Line(l)); int(first.lineSize[l]) != want {
						t.Fatalf("%s/%d/%d: line %d memo %d, fresh sizing %d", name, scale, seed, l, first.lineSize[l], want)
					}
				}
				if fresh.lineSize != nil {
					t.Fatal("the reference image bound a memo")
				}
			}
		}
	}
}

// TestSizeTableCopyOnWrite: a store through a Trace re-sizes the stored
// image's line in a private copy of its memo, while another image of
// the same key and the stored image's pre-store clone keep reading the
// pristine size from the untouched table.
func TestSizeTableCopyOnWrite(t *testing.T) {
	codec := compress.BPC{}
	const seed = 9201
	p := sizeTestProfile(t, "GemsFDTD", 16)
	a, b := NewImage(p, seed), NewImage(p, seed)
	a.SizeAll(codec, 1)
	b.SizeAll(codec, 1)
	clone := a.Clone()
	table := slices.Clone(tableSizes(a, codec))
	if !clone.sharedSize || &clone.lineSize[0] != &a.lineSize[0] {
		t.Fatal("a clone of a pristine image copied its shared memo")
	}

	line := firstStoreChangingSize(t, a, p, seed, codec)
	if a.sharedSize || &a.lineSize[0] == &b.lineSize[0] {
		t.Fatal("a store left the image reading the shared table")
	}
	if got, want := a.SizeLine(codec, line), compress.SizeOnly(codec, a.Line(line)); got != want {
		t.Fatalf("stored line sizes to %d, want %d", got, want)
	}
	pristine := int(table[line])
	for what, im := range map[string]*Image{"other image": b, "pre-store clone": clone} {
		if !im.sharedSize {
			t.Fatalf("%s lost its shared memo", what)
		}
		if got := im.SizeLine(codec, line); got != pristine {
			t.Fatalf("%s sizes the stored line to %d, want pristine %d", what, got, pristine)
		}
	}
	// CloneInto a destination still sharing the table must copy the
	// stored image's memo into fresh storage, not into the table.
	if got := a.CloneInto(b); got.sharedSize || got.SizeLine(codec, line) != compress.SizeOnly(codec, a.Line(line)) {
		t.Fatal("CloneInto did not give the destination the stored image's memo")
	}
	if !slices.Equal(tableSizes(a, codec), table) {
		t.Fatal("a store changed the shared table")
	}
}

// TestSizeTableSkipsStoredImages: an image stored to before it binds
// neither fills an empty table nor reads a filled one.
func TestSizeTableSkipsStoredImages(t *testing.T) {
	codec := compress.BPC{}
	const seed = 9301
	p := sizeTestProfile(t, "soplex", 16)

	stored := NewImage(p, seed)
	dropSizeTable(stored, codec)
	line := firstStoreChangingSize(t, stored, p, seed, codec)
	stored.SizeAll(codec, 2)
	if stored.sharedSize || tableSizes(stored, codec) != nil {
		t.Fatal("an image stored to before binding filled the table")
	}
	for l := uint64(0); l < stored.Lines(); l++ {
		if want := compress.SizeOnly(codec, stored.Line(l)); int(stored.lineSize[l]) != want {
			t.Fatalf("line %d memo %d, want %d", l, stored.lineSize[l], want)
		}
	}

	pristine := NewImage(p, seed)
	pristine.SizeAll(codec, 1)
	if tableSizes(pristine, codec) == nil {
		t.Fatal("a pristine image did not fill the table")
	}
	late := NewImage(p, seed)
	if firstStoreChangingSize(t, late, p, seed, codec) != line {
		t.Fatal("two identical traces diverged")
	}
	if got, want := late.SizeLine(codec, line), compress.SizeOnly(codec, late.Line(line)); late.sharedSize || got != want {
		t.Fatalf("a stored image read the table: line %d sizes to %d, want %d", line, got, want)
	}
}

// flakyCodec is BPC under another name that panics while *fail is set.
type flakyCodec struct{ fail *bool }

func (c flakyCodec) Name() string { return "flaky-bpc" }
func (c flakyCodec) Compress(dst, src []byte) int {
	if *c.fail {
		panic("flaky codec")
	}
	return compress.BPC{}.Compress(dst, src)
}
func (c flakyCodec) Decompress(dst, src []byte) error { return compress.BPC{}.Decompress(dst, src) }
func (c flakyCodec) SizeOnly(src []byte) int {
	if *c.fail {
		panic("flaky codec")
	}
	return compress.BPC{}.SizeOnly(src)
}

// TestSizeTableFailedFillPublishesNothing: a fill whose codec panics
// leaves the table empty and its image unbound; the next binder fills.
func TestSizeTableFailedFillPublishesNothing(t *testing.T) {
	fail := true
	codec := flakyCodec{&fail}
	const seed = 9401
	p := sizeTestProfile(t, "gcc", 16)
	first := NewImage(p, seed)
	dropSizeTable(first, codec)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the flaky codec did not panic")
			}
		}()
		first.SizeAll(codec, 2)
	}()
	if tableSizes(first, codec) != nil || first.lineSize != nil {
		t.Fatal("a failed fill published a table or bound its image")
	}

	fail = false
	second := NewImage(p, seed)
	second.SizeLine(codec, 3)
	sizes := tableSizes(second, codec)
	if sizes == nil || !second.sharedSize {
		t.Fatal("the binder after a failed fill did not fill the table")
	}
	first.SizeAll(codec, 1)
	if &first.lineSize[0] != &sizes[0] {
		t.Fatal("the failed binder did not bind the table on retry")
	}
	for l := uint64(0); l < second.Lines(); l++ {
		if want := compress.SizeOnly(compress.BPC{}, second.Line(l)); int(sizes[l]) != want {
			t.Fatalf("line %d table %d, want %d", l, sizes[l], want)
		}
	}
}

// TestSizeTableFillJobsInvariant: filling a key's table over one worker
// and over four gives byte-identical tables.
func TestSizeTableFillJobsInvariant(t *testing.T) {
	codec := compress.BPC{}
	const seed = 9501
	p := sizeTestProfile(t, "mcf", 16)
	serial := NewImage(p, seed)
	dropSizeTable(serial, codec)
	serial.SizeAll(codec, 1)
	want := tableSizes(serial, codec)
	dropSizeTable(serial, codec)
	fanned := NewImage(p, seed)
	fanned.SizeAll(codec, 4)
	got := tableSizes(fanned, codec)
	if got == nil || &got[0] == &want[0] {
		t.Fatal("the second binder did not fill a new table")
	}
	if !slices.Equal(got, want) {
		t.Fatal("fills at jobs 1 and 4 differ")
	}
}

// TestSizeTableConcurrentBind binds one key from eight goroutines, half
// through SizeLine and half through a fanned-out SizeAll, and requires
// every image to end on the same single table. Run it under -race
// (make race): the table is shared across goroutines.
func TestSizeTableConcurrentBind(t *testing.T) {
	codec := compress.BPC{}
	const seed = 9601
	p := sizeTestProfile(t, "Graph500", 64)
	images := make([]*Image, 8)
	for i := range images {
		images[i] = NewImage(p, seed)
	}
	dropSizeTable(images[0], codec)
	var wg sync.WaitGroup
	for i := range images {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				images[i].SizeLine(codec, uint64(i))
			} else {
				images[i].SizeAll(codec, 4)
			}
		}(i)
	}
	wg.Wait()
	for i, im := range images {
		if !im.sharedSize || &im.lineSize[0] != &images[0].lineSize[0] {
			t.Fatalf("image %d did not bind the one shared table", i)
		}
	}
	ref := NewImage(p, seed)
	for l := uint64(0); l < ref.Lines(); l++ {
		if want := compress.SizeOnly(codec, ref.Line(l)); int(images[0].lineSize[l]) != want {
			t.Fatalf("line %d table %d, want %d", l, images[0].lineSize[l], want)
		}
	}
}
