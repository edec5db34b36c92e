package main

// Example runs the planner end to end: the consolidated mix is
// profiled once and replayed at every memory budget, so the pinned
// table checks the capacity methodology from Profile to At.
func Example() {
	main()
	// Output:
	// consolidating [mcf soplex perlbench Pagerank]: combined footprint 52 MB (scaled)
	//
	// Average service progress vs a fully-provisioned machine, by memory budget:
	// budget  uncompressed  lcp    compresso  unconstrained-bound
	// ------  ------------  -----  ---------  -------------------
	// 90%     0.817         0.887  0.887      1.000
	// 80%     0.724         0.877  0.884      1.000
	// 70%     0.633         0.777  0.881      1.000
	// 60%     0.550         0.662  0.765      1.000
	// 50%     0.467         0.553  0.630      1.000
	//
	// Smallest budget keeping >= 95% of full-memory performance:
	//   uncompressed:  -
	//   lcp:           -
	//   compresso:     -
	//
	// Compresso needs no OS changes for this (§V): capacity is reclaimed
	// through the standard ballooning driver when data turns incompressible.
}
