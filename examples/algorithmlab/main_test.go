package main

// Example runs the codec shoot-out end to end over every data pattern
// and bin set. The output is deterministic, so it is pinned in full.
func Example() {
	main()
	// Output:
	// Raw compression ratio by data pattern (higher is better):
	// pattern      bpc     bpc-baseline  bdi     fpc
	// -----------  ------  ------------  ------  ------
	// zero         64.000  64.000        64.000  64.000
	// seq          9.220   9.220         2.505   1.001
	// smallint     2.566   2.557         1.948   2.234
	// repeated     4.350   4.350         7.111   1.000
	// smoothfloat  1.876   1.876         1.006   1.000
	// pointer      1.332   1.279         2.462   1.369
	// text         1.057   1.001         1.000   1.000
	// random       1.000   1.000         1.000   1.000
	// MEAN         10.675  10.660        10.129  9.076
	//
	// Effect of line-size bins (BPC, mixed realistic data):
	// bins                 ratio  note
	// -------------------  -----  ----------------------------------------
	// none (raw sizes)     2.336  upper bound, unimplementable
	// eight-bin            2.185  best fit, 17.5% more overflows (§IV-A1)
	// legacy-0/22/44/64    1.903  prior work; 30.9% split lines
	// compresso-0/8/32/64  1.879  Compresso: -0.25% ratio, 3.2% splits
	//
	// Where the best-of-transform modification wins (stable high bits, noisy low bits):
	// raw bit-plane variant won 13/500 small-int lines, saving 37 bytes total
}
