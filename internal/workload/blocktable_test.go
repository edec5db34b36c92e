package workload

import (
	"encoding/binary"
	"sync"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
)

// The block-table tests use seeds no other test binds (97xx), and each
// drops the block tables first, so they hold in any order and under
// -count.

// dropBlockTables forgets every block table, so the next pricer of any
// key starts from an empty one.
func dropBlockTables() { blockTables.Reset() }

// liveBlockSize is compress.LZSizeBlock over the block's live bytes,
// read line by line with no memo involved.
func liveBlockSize(im *Image, first uint64) int {
	block := make([]byte, 0, memctl.LZBlockBytes)
	for l := uint64(0); l < memctl.LZBlockLines; l++ {
		block = append(block, im.Line(first+l)...)
	}
	return compress.LZSizeBlock(block)
}

// TestBlockTableMatchesLZSizeBlock is the differential check: every
// block's price, and the table entry it leaves behind, equals
// LZSizeBlock over a freshly generated image that never touched the
// table; a second image of the key then reads every price back.
func TestBlockTableMatchesLZSizeBlock(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "GemsFDTD", "soplex"} {
		p := sizeTestProfile(t, name, 16)
		const seed = 9701
		first, second, fresh := NewImage(p, seed), NewImage(p, seed), NewImage(p, seed)
		dropBlockTables()
		for l := uint64(0); l < first.Lines(); l += memctl.LZBlockLines {
			want := liveBlockSize(fresh, l)
			if got := first.SizeLZBlock(l); got != want {
				t.Fatalf("%s block %d: priced %d, LZSizeBlock %d", name, l/memctl.LZBlockLines, got, want)
			}
			if e := first.blockSize[l/memctl.LZBlockLines].Load(); int(e) != want+1 {
				t.Fatalf("%s block %d: table entry %d, want %d", name, l/memctl.LZBlockLines, e, want+1)
			}
		}
		for l := uint64(0); l < second.Lines(); l += memctl.LZBlockLines {
			if got, want := second.SizeLZBlock(l), liveBlockSize(fresh, l); got != want {
				t.Fatalf("%s block %d: second image priced %d, want %d", name, l/memctl.LZBlockLines, got, want)
			}
		}
		if &first.blockSize[0] != &second.blockSize[0] {
			t.Fatalf("%s: two images of one key hold different block tables", name)
		}
	}
}

// storeChangingBlock runs a trace over im until a store leaves its
// block at an LZ size other than the pristine one, and returns the
// block's first line.
func storeChangingBlock(t *testing.T, im *Image, p Profile, seed uint64) uint64 {
	t.Helper()
	ref := NewImage(p, seed)
	tr := NewTraceOn(im, p, seed, 100_000)
	var op Op
	for i := 0; i < 100_000; i++ {
		tr.Next(&op)
		first := op.LineAddr &^ (memctl.LZBlockLines - 1)
		if op.Write && liveBlockSize(im, first) != liveBlockSize(ref, first) {
			return first
		}
	}
	t.Fatal("no store changed a block's LZ size")
	return 0
}

// TestStoredBlockPricedFromLiveBytes: once a store reaches a block, its
// price comes from the live bytes, on an owning image and on a replay
// overlay, though the pristine table still holds the block's old size.
// Each block is chosen so that the table's entry would be wrong.
func TestStoredBlockPricedFromLiveBytes(t *testing.T) {
	const seed = 9711
	p := sizeTestProfile(t, "gcc", 16)
	im := NewImage(p, seed)
	dropBlockTables()
	ref := NewImage(p, seed)
	for l := uint64(0); l < im.Lines(); l += memctl.LZBlockLines {
		im.SizeLZBlock(l) // the table now prices every pristine block
	}
	first := storeChangingBlock(t, im, p, seed)
	pristine := liveBlockSize(ref, first)
	if e := im.blockSize[first/memctl.LZBlockLines].Load(); int(e) != pristine+1 {
		t.Fatalf("table entry %d, want the pristine size %d+1", e, pristine)
	}
	if got, want := im.SizeLZBlock(first), liveBlockSize(im, first); got != want {
		t.Fatalf("owning image: stored block priced %d, live bytes %d (pristine %d)", got, want, pristine)
	}

	master := NewImage(p, seed)
	master.Materialize(1)
	lg := RecordTrace(master.Clone(), p, seed, 20_000, compress.BPC{})
	rp := lg.ReplayOver(master)
	var op Op
	checked := 0
	for i := uint64(0); i < lg.Ops(); i++ {
		rp.Next(&op)
		if !op.Write {
			continue
		}
		b := op.LineAddr &^ (memctl.LZBlockLines - 1)
		want := liveBlockSize(rp.img, b)
		if want == liveBlockSize(ref, b) {
			continue
		}
		if got := rp.img.SizeLZBlock(b); got != want {
			t.Fatalf("overlay: stored block %d priced %d, live bytes %d", b/memctl.LZBlockLines, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no replayed store changed a block's LZ size")
	}
}

// TestBlockMemoClearedByStore: the memo of a stored-to block serves a
// repeat price of unchanged bytes, and the next store to the block
// makes the price come from the new bytes.
func TestBlockMemoClearedByStore(t *testing.T) {
	const seed = 9721
	p := sizeTestProfile(t, "soplex", 16)
	im := NewImage(p, seed)
	im.noteStore(0)
	first := im.SizeLZBlock(0)
	if v := im.blockMemo[0]; int(v) != first+1 {
		t.Fatalf("memo entry %d after pricing %d", v, first)
	}
	for i := uint64(0); i < memctl.LZBlockLines; i++ {
		line := im.Line(i)
		im.noteStore(i)
		for j := 0; j < compress.LineSize; j += 8 {
			binary.LittleEndian.PutUint64(line[j:], i*uint64(j)+1)
		}
	}
	if got, want := im.SizeLZBlock(0), liveBlockSize(im, 0); got != want || got == first {
		t.Fatalf("after rewriting the block: priced %d, live bytes %d, before %d", got, want, first)
	}
}

// TestBlockTableConcurrentPricing prices every block of one key from
// eight goroutines, each through its own image, and requires every
// price to equal LZSizeBlock. Run it under -race (make race): the
// table's entries are shared across goroutines.
func TestBlockTableConcurrentPricing(t *testing.T) {
	const seed = 9731
	p := sizeTestProfile(t, "mcf", 64)
	ref := NewImage(p, seed)
	dropBlockTables()
	want := make([]int, ref.Lines()/memctl.LZBlockLines)
	for b := range want {
		want[b] = liveBlockSize(ref, uint64(b)*memctl.LZBlockLines)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			im := NewImage(p, seed)
			for i := range want {
				b := (i + g*len(want)/8) % len(want) // start each goroutine elsewhere
				if got := im.SizeLZBlock(uint64(b) * memctl.LZBlockLines); got != want[b] {
					errs <- "a concurrent price differs from LZSizeBlock"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSecondCodecSizeLine: an image bound to one codec answers another
// from that codec's pristine table while a line was never stored to,
// and from the line's bytes once it was. On a replay overlay, the log's
// shared store-size slots, which hold the bound codec's sizes, never
// answer for the second codec.
func TestSecondCodecSizeLine(t *testing.T) {
	bpc, bdi := compress.BPC{}, compress.BDI{}
	const seed = 9741
	p := sizeTestProfile(t, "GemsFDTD", 16)
	im := NewImage(p, seed)
	dropSizeTables()
	im.SizeAll(bpc, 1)
	ref := NewImage(p, seed)
	for l := uint64(0); l < im.Lines(); l += 7 {
		if got, want := im.SizeLine(bdi, l), compress.SizeOnly(bdi, ref.Line(l)); got != want {
			t.Fatalf("pristine line %d: BDI size %d, want %d", l, got, want)
		}
	}
	if tableSizes(im, bdi) == nil || im.altCodec != bdi.Name() {
		t.Fatal("the second codec did not bind its pristine table")
	}

	line := firstStoreChangingSize(t, im, p, seed, bdi)
	if got, want := im.SizeLine(bdi, line), compress.SizeOnly(bdi, im.Line(line)); got != want {
		t.Fatalf("stored line %d: BDI size %d, live bytes %d (table %d)", line, got, want, tableSizes(im, bdi)[line])
	}

	master := NewImage(p, seed)
	master.SizeAll(bpc, 1)
	lg := RecordTrace(master.Clone(), p, seed, 20_000, bpc)
	rp := lg.ReplayOver(master)
	var op Op
	checked := 0
	for i := uint64(0); i < lg.Ops(); i++ {
		rp.Next(&op)
		if !op.Write {
			continue
		}
		live := rp.img.Line(op.LineAddr)
		nBPC, nBDI := compress.SizeOnly(bpc, live), compress.SizeOnly(bdi, live)
		if nBPC == nBDI {
			continue
		}
		// Fill the shared slot with the bound codec's size first.
		if got := rp.img.SizeLine(bpc, op.LineAddr); got != nBPC {
			t.Fatalf("overlay line %d: BPC size %d, want %d", op.LineAddr, got, nBPC)
		}
		if got := rp.img.SizeLine(bdi, op.LineAddr); got != nBDI {
			t.Fatalf("overlay line %d: BDI size %d, want %d (BPC %d)", op.LineAddr, got, nBDI, nBPC)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no replayed store had distinct BPC and BDI sizes")
	}
}

// FuzzBlockSizeMemo drives an owning image and its clones through
// random stores and block prices, and requires every price to equal
// LZSizeBlock over the live bytes: the pristine table, the stored-block
// bitmap and the private memo must never serve a stale size.
func FuzzBlockSizeMemo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0, 0})
	p := sizeTestProfile(f, "gcc", 64)
	const seed = 9751
	f.Fuzz(func(t *testing.T, ops []byte) {
		im := NewImage(p, seed)
		nBlocks := im.Lines() / memctl.LZBlockLines
		for len(ops) >= 4 {
			op, arg, val := ops[0]%4, uint64(binary.LittleEndian.Uint16(ops[1:3])), ops[3]
			ops = ops[4:]
			first := (arg % nBlocks) * memctl.LZBlockLines
			switch op {
			case 0, 1: // store: fill part of one line with val
				l := first + uint64(val)%memctl.LZBlockLines
				line := im.Line(l)
				im.noteStore(l)
				for j := int(val) % compress.LineSize; j < compress.LineSize; j += 1 + int(op) {
					line[j] = val
				}
			case 2: // price the block
				if got, want := im.SizeLZBlock(first), liveBlockSize(im, first); got != want {
					t.Fatalf("block %d priced %d, live bytes %d", first/memctl.LZBlockLines, got, want)
				}
			case 3: // continue on a clone
				im = im.Clone()
			}
		}
		for l := uint64(0); l < im.Lines(); l += memctl.LZBlockLines {
			if got, want := im.SizeLZBlock(l), liveBlockSize(im, l); got != want {
				t.Fatalf("final block %d priced %d, live bytes %d", l/memctl.LZBlockLines, got, want)
			}
		}
	})
}
