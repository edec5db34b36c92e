package sim

import (
	"sync"

	"compresso/internal/cache"
	"compresso/internal/memctl"
)

// The cache filter (DESIGN.md §13). A one-core machine's L1/L2/L3
// outcome depends only on its op stream and its L3 geometry, and
// shared assets fix both for every system of a comparison. So the
// first such run on a MixAssets records the hierarchy's outcome into a
// cache.FilterLog, and every later run replays it instead of simulating
// the caches.
//
// A multi-core machine's shared L3 sees the cores in an order that
// follows each core's clock, which differs per system, so L3 must run
// live. Each core's private L1/L2 outcome, and the L3 installs it
// issues, depend on that core's op stream alone (the hierarchy is
// non-inclusive and never back-invalidates). So the first multi-core
// run on a MixAssets records one cache.PrivateLog per core, and later
// runs replay those logs in place of L1/L2 while driving the shared L3
// live. Each core still charges its own system's latencies.

// filterSlot is a MixAssets' cache-filter log of type L and the claim
// on recording it.
type filterSlot[L any] struct {
	mu        sync.Mutex
	recording bool // a run holds the claim
	log       *L   // published by a completed recording
}

// claim returns the published log to replay, or nil with record true
// when the caller takes the claim to record a fresh log (it must then
// release it), or nil with record false when another run is recording:
// the caller runs live rather than waiting, so the outcome cannot
// depend on scheduling.
func (f *filterSlot[L]) claim() (log *L, record bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.log != nil:
		return f.log, false
	case f.recording:
		return nil, false
	}
	f.recording = true
	return nil, true
}

// release ends a recording claim. Only a run that completed every op
// publishes its log; after a panic or cancellation the next run
// records afresh.
func (f *filterSlot[L]) release(log *L, completed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recording = false
	if completed {
		f.log = log
	}
}

// filterCaches connects a machine running on shared assets to their
// cache-filter logs: one core's whole hierarchy to the one-core log,
// several cores' private levels each to its core's private log. Each
// log is replayed when published, else recorded when unclaimed, else
// left live. It returns the release to call, with whether the run
// completed, once the run ends (nil when nothing records). Images too
// large for the logs' 32-bit line addresses keep the live caches, as do
// one-core runs at another footprint scale (which sets the one-core
// log's L3 geometry; L1/L2 geometry is fixed, so the private logs do
// not depend on it).
func (m *machine) filterCaches() (release func(completed bool)) {
	a := m.cfg.Assets
	n := len(m.cores)
	if a == nil ||
		m.base[n-1]*memctl.LinesPerPage+m.streams[n-1].Image().Lines() >= cache.FilterLines {
		return nil
	}
	if n == 1 {
		if a.scale != m.cfg.FootprintScale {
			return nil
		}
		return filterInto(&a.filter, m.cfg.Ops, cache.NewFilterLog, m.hiers[0].Replay, m.hiers[0].Record)
	}
	var releases []func(bool)
	for i, h := range m.hiers {
		if r := filterInto(&a.private[i], m.cfg.Ops, cache.NewPrivateLog, h.ReplayPrivate, h.RecordPrivate); r != nil {
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

// filterInto claims slot for one hierarchy: it starts replay of a
// published log, or recording of a fresh one of ops Accesses, returning
// that recording's release.
func filterInto[L any](slot *filterSlot[L], ops uint64, fresh func(int) *L, replay, record func(*L)) func(bool) {
	log, rec := slot.claim()
	switch {
	case log != nil:
		replay(log)
		return nil
	case !rec:
		return nil
	}
	log = fresh(int(ops))
	record(log)
	return func(completed bool) { slot.release(log, completed) }
}
