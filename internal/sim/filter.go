package sim

import (
	"fmt"

	"compresso/internal/cache"
	"compresso/internal/memctl"
	"compresso/internal/parallel"
	"compresso/internal/workload"
)

// The cache filter (DESIGN.md §13). A one-core machine's L1/L2/L3
// outcome depends only on its op stream and its L3 geometry, and the
// op stream only on the scaled profile, the seed and Ops. So the first
// run of such a stream in the process records the hierarchy's outcome
// into a cache.FilterLog, and every later run of it, on any system,
// replays the log instead of simulating the caches.
//
// A multi-core machine's shared L3 sees the cores in an order that
// follows each core's clock, which differs per system, so L3 must run
// live. Each core's private L1/L2 outcome, and the L3 installs it
// issues, depend on that core's op stream and OSPA base page alone (the
// hierarchy is non-inclusive and never back-invalidates). So the first
// run of each core's stream at its base records one cache.PrivateLog,
// and later runs replay it in place of L1/L2 while driving the shared
// L3 live. Each core still charges its own system's latencies.

// filterKey is what fixes a log's content: the scaled profile (rendered
// with %#v, the identity the workload size table and the experiments'
// run memo use), the seed and Ops, which fix the op stream, and where
// the stream runs. A one-core log depends on the machine's L3 and so
// sets geom, the pass geometry; a private log depends on the line
// addresses its core's base page gives the stream, which select the
// L1/L2 sets, and so sets base. The two kinds live in separate tables.
type filterKey struct {
	profile   string
	seed, ops uint64
	geom      geometry
	base      uint64
}

// oneCoreKey is the key of a one-core machine's log.
func oneCoreKey(prof workload.Profile, seed, ops uint64, geom geometry) filterKey {
	return filterKey{profile: fmt.Sprintf("%#v", prof), seed: seed, ops: ops, geom: geom}
}

// privateKey is the key of one core's private-level log.
func privateKey(prof workload.Profile, seed, ops, base uint64) filterKey {
	return filterKey{profile: fmt.Sprintf("%#v", prof), seed: seed, ops: ops, base: base}
}

// filterTables is a set of one-core and private-level logs. A log is
// published, and replayed from then on, only once a recording of its
// key completes every op; a run that finds its key being recorded runs
// live rather than waiting (Memo.Claim), so the outcome cannot depend
// on scheduling.
type filterTables struct {
	one     parallel.Memo[filterKey, *cache.FilterLog]
	private parallel.Memo[filterKey, *cache.PrivateLog]
}

// processFilters holds every log the process has recorded. A log is
// about one byte per op plus four per writeback or L3 install. The logs
// stay until ResetCacheFilters drops them, or ResetOneCoreFilters the
// one-core ones.
var processFilters filterTables

// ResetCacheFilters drops every cache-filter log the process has
// published, so the next run of each op stream records it afresh (the
// determinism tests use it to record at every jobs setting). A
// recording in flight completes unharmed but publishes nothing, and a
// concurrent run of its key records its own log. Results are the same
// either way.
func ResetCacheFilters() {
	ResetOneCoreFilters()
	processFilters.private.Reset()
}

// ResetOneCoreFilters drops the one-core logs only, as ResetCacheFilters
// drops them, and keeps the mixes' private-level logs. A caller that
// has run the last pass of each one-core stream it will run calls it
// to free logs no later run will replay.
func ResetOneCoreFilters() {
	processFilters.one.Reset()
}

// filterCaches connects a pass to its cache-filter logs in p.filters,
// through its first machine, which the others follow: one core's whole
// hierarchy to its one-core log, several cores' private levels each to
// its core's private log. Each log is replayed when published, else
// recorded when unclaimed, else left live. It returns the release to
// call, with whether the pass completed, once the pass ends (nil when
// nothing records). Images too large for the logs' 32-bit line
// addresses keep the live caches.
func (p *pass) filterCaches() (release func(completed bool)) {
	n := len(p.profs)
	if p.base[n-1]*memctl.LinesPerPage+p.streams[n-1].Image().Lines() >= cache.FilterLines {
		return nil
	}
	lead := p.ms[0]
	if n == 1 {
		key := oneCoreKey(p.profs[0], p.cfg.Seed, p.cfg.Ops, p.geom)
		return filterInto(&p.filters.one, key, cache.NewFilterLog, (*cache.FilterLog).Finish,
			lead.hiers[0].Replay, lead.hiers[0].Record)
	}
	var releases []func(bool)
	for i, h := range lead.hiers {
		key := privateKey(p.profs[i], workload.CoreSeed(p.cfg.Seed, i), p.cfg.Ops, p.base[i])
		if r := filterInto(&p.filters.private, key, cache.NewPrivateLog, (*cache.PrivateLog).Finish,
			h.ReplayPrivate, h.RecordPrivate); r != nil {
			releases = append(releases, r)
		}
	}
	if releases == nil {
		return nil
	}
	return func(completed bool) {
		for _, r := range releases {
			r(completed)
		}
	}
}

// filterInto claims key in table for one hierarchy: it starts replay of
// a published log, or recording of a fresh one of the key's ops
// Accesses, returning that recording's release, which finishes a
// completed log before publishing it.
func filterInto[L any](table *parallel.Memo[filterKey, *L], key filterKey, fresh func(int) *L, finish, replay, record func(*L)) func(bool) {
	log, ok, release := table.Claim(key)
	switch {
	case ok:
		replay(log)
		return nil
	case release == nil:
		return nil
	}
	log = fresh(int(key.ops))
	record(log)
	return func(completed bool) {
		if completed {
			finish(log)
		}
		release(log, completed)
	}
}
