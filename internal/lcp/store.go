package lcp

import (
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/mpa"
)

// Store is the buddy-block page store of the LCP-packed controllers:
// machine memory holds one metadata line per OSPA page, then 512 B data
// chunks, and each stored page owns one block of 1, 2, 4 or 8 chunks.
type Store struct {
	owner      string // names the controller in panics
	buddy      *mpa.BuddyAllocator
	baseLine   uint64 // machine line of data chunk 0
	onPressure func(needChunks int) bool
	span       [memctl.LinesPerPage]uint64
}

// NewStore lays out machineBytes for ospaPages pages. onPressure (may
// be nil) is asked to free memory whenever an allocation fails.
func NewStore(owner string, ospaPages int, machineBytes int64, onPressure func(needChunks int) bool) *Store {
	mdBytes := int64(ospaPages) * metadata.EntrySize
	dataChunks := int((machineBytes - mdBytes) / metadata.ChunkSize)
	if dataChunks <= 8 {
		panic(owner + ": no machine memory left for data after metadata")
	}
	return &Store{
		owner:      owner,
		buddy:      mpa.NewBuddyAllocator(dataChunks-dataChunks%8, 3),
		baseLine:   uint64(ospaPages),
		onPressure: onPressure,
	}
}

// Place allocates p a block of the given chunk count.
func (s *Store) Place(p *Page, chunks int) {
	p.Chunks = chunks
	for {
		base, ok := s.buddy.Alloc(chunks * metadata.ChunkSize)
		if ok {
			p.Base = base
			return
		}
		if s.onPressure == nil || !s.onPressure(chunks) {
			panic(s.owner + ": out of machine memory and no pressure handler")
		}
	}
}

// Relocate moves p to a fresh block of the given chunk count, freeing
// the old block only after the new one is allocated.
func (s *Store) Relocate(p *Page, chunks int) {
	old := p.Base
	s.Place(p, chunks)
	s.buddy.Free(old)
}

// Free releases p's block.
func (s *Store) Free(p *Page) { s.buddy.Free(p.Base) }

// Line maps byte offset off within p's block to its machine line.
func (s *Store) Line(p *Page, off int) uint64 {
	chunk := p.Base + uint32(off/metadata.ChunkSize)
	return s.baseLine + uint64(chunk)*(metadata.ChunkSize/memctl.LineBytes) +
		uint64(off%metadata.ChunkSize)/memctl.LineBytes
}

// Span returns the machine lines covering [off, off+size) of p's block
// (none for an empty span), in a buffer reused by the next call. A
// block's chunks are contiguous, so its lines are consecutive.
func (s *Store) Span(p *Page, off, size int) []uint64 {
	if size <= 0 {
		return nil
	}
	first := s.Line(p, off)
	n := (off+size-1)/memctl.LineBytes - off/memctl.LineBytes + 1
	for i := range n {
		s.span[i] = first + uint64(i)
	}
	return s.span[:n]
}

// UsedBytes reports the bytes of allocated blocks.
func (s *Store) UsedBytes() int64 { return s.buddy.UsedBytes() }

// FreeMachineChunks reports free allocator capacity in chunks.
func (s *Store) FreeMachineChunks() int {
	return int(s.buddy.FreeBytes() / metadata.ChunkSize)
}
