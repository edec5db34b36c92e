package experiments

import "compresso/internal/sim"

// The sweep shares its expensive work through package-level
// parallel.Memo tables: the shared grids (fig10's rows feed fig10a,
// fig10b and fig12; fig11's feed fig11a and fig11b; the backends
// sweep feeds backends-ratio and backends-traffic), keyed by the
// (quick, seed) configuration; the single-core runs (run.go), one run
// map per op stream, which the plan (plan.go) fills from the
// experiments' registered single-core grids before any cell asks; and
// the capacity cells (tab2.go). Under a parallel RunAll several
// callers can want one key at once: the first computes it and the
// others wait for it on their own context. The computations are
// deterministic, so a shared value is byte-for-byte what the caller
// would have computed itself, and the claim rule (parallel.Memo) keeps
// a failure with the caller that raised it.

// resetMemos clears every package-level memo, the simulator's
// cache-filter logs and the pass counts, so a rerun records them
// afresh.
// TestResetMemosClearsEveryMemo fails when a new memo is left out.
func resetMemos() {
	sim.ResetCacheFilters()
	fig10Cache.Reset()
	fig11Cache.Reset()
	backendsCache.Reset()
	runCache.Reset()
	capCache.Reset()
	passCount.all.Store(0)
	passCount.planned.Store(0)
}
