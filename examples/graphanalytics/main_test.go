package main

// Example runs the three graph benchmarks through the four memory
// systems end to end. The output is deterministic, so it is pinned in
// full.
func Example() {
	main()
	// Output:
	// Graph workloads on the four memory systems (cycle simulation):
	// benchmark   system        rel-perf  ratio  extra  md-hit-rate
	// ----------  ------------  --------  -----  -----  -----------
	// Graph500    uncompressed  1.000     1.000  0.000  n/a
	// Graph500    lcp           0.596     1.639  0.513  0.732
	// Graph500    lcp-align     0.620     2.383  0.384  0.732
	// Graph500    compresso     0.546     2.927  0.432  0.775
	// Pagerank    uncompressed  1.000     1.000  0.000  n/a
	// Pagerank    lcp           0.736     1.410  0.367  0.898
	// Pagerank    lcp-align     0.779     1.764  0.170  0.898
	// Pagerank    compresso     0.874     1.613  0.297  0.964
	// Forestfire  uncompressed  1.000     1.000  0.000  n/a
	// Forestfire  lcp           0.703     1.438  0.398  0.865
	// Forestfire  lcp-align     0.728     1.808  0.217  0.865
	// Forestfire  compresso     0.777     1.900  0.314  0.936
	//
	// Half-entry metadata-cache optimization on Graph500 (incompressible-heavy pages):
	// half-entry opt  md hit rate  extra accesses  rel cycles
	// --------------  -----------  --------------  ----------
	// false           0.732        0.472           1.000
	// true            0.775        0.432           1.094
	//
	// The paper's mix10 (Forestfire+Pagerank+Graph500+cactusADM) gains >100%
	// with Compresso over LCP in constrained memory; run:
	//   go run ./cmd/compresso-sim -exp fig11b -quick
}
