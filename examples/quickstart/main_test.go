package main

// Example runs the quickstart end to end: two lines compressed, a
// Compresso controller built, and a fill and two writebacks driven
// through it. The output is deterministic, so it is pinned in full.
func Example() {
	main()
	// Output:
	// == compressing cache lines with modified BPC ==
	// a line of sequential counters compresses to 4 bytes (bin: 8 B)
	// a line of random bytes compresses to 64 bytes (stored raw)
	//
	// == building a Compresso memory controller ==
	// installed a 4 KB page of counters -> 512 machine bytes (ratio 8.0x)
	// LLC fill of line 5 completed at cycle 152 (metadata + data + decompress)
	// incompressible writeback: 1 line overflow, 0 inflation-room placement
	// zero writeback: 1 zero-line ops (no DRAM access)
	//
	// final: 3 demand accesses, 33.3% extra accesses, ratio 4.00x
	//
	// next: examples/graphanalytics, examples/capacityplanner, examples/algorithmlab
}
