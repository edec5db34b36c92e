package compress

import "compresso/internal/bitstream"

// Scratch holds reusable codec working memory: the bitstream writer
// a Compress call encodes into (BPC prices both best-of variants
// without a writer and encodes only the winner). A zero Scratch is
// ready for use; the writer's buffer is allocated on first use and
// retained across calls, so a caller that owns a Scratch and passes it
// to CompressWith compresses without per-call heap allocation.
//
// Ownership rules (DESIGN.md §10): a Scratch belongs to exactly one
// goroutine; codecs may reuse its writer freely within one call, and
// dst contents returned by Compress never alias scratch storage (the
// compressed bytes are copied out), so the Scratch can be reused
// immediately for the next line.
type Scratch struct {
	w bitstream.Writer
}

// Sizer is the size-only fast path: codecs that can report the exact
// Compress result size without materializing output bytes. All codecs
// in this package implement it with zero heap allocations; the
// equality SizeOnly(src) == Compress(dst, src) is pinned for every
// codec by FuzzCodecSizeOnly.
//
// This is the path the simulators actually live on: the memory
// controllers, the capacity tracker, CompressPoints profiling and the
// figure experiments all need only the size/bin of a line, never its
// compressed bytes.
type Sizer interface {
	// SizeOnly returns exactly what Compress would return for src,
	// following the package size conventions, without writing output.
	SizeOnly(src []byte) int
}

// ScratchCompressor is implemented by codecs whose Compress can run
// against caller-owned Scratch, avoiding per-call allocation of
// bitstream writers.
type ScratchCompressor interface {
	Codec
	// CompressScratch behaves exactly like Compress but draws working
	// memory from s.
	CompressScratch(dst, src []byte, s *Scratch) int
}

// SizeOnly returns the compressed size in bytes of src under codec c,
// using the codec's allocation-free counting path when it has one and
// falling back to a scratch-buffer Compress otherwise.
func SizeOnly(c Codec, src []byte) int {
	if s, ok := c.(Sizer); ok {
		return s.SizeOnly(src)
	}
	return Size(c, src)
}

// CompressWith compresses src into dst reusing s for working memory
// when codec c supports it, falling back to plain Compress otherwise.
func CompressWith(c Codec, dst, src []byte, s *Scratch) int {
	if sc, ok := c.(ScratchCompressor); ok {
		return sc.CompressScratch(dst, src, s)
	}
	return c.Compress(dst, src)
}
