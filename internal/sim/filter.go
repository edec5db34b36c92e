package sim

import (
	"sync"

	"compresso/internal/cache"
)

// The single-core cache filter (DESIGN.md §13). A one-core machine's
// L1/L2/L3 outcome depends only on its op stream and its L3 geometry,
// and shared assets fix both for every system of a comparison. So the
// first such run on a MixAssets records the hierarchy's outcome into a
// cache.FilterLog, and every later run replays it instead of simulating
// the caches. Each core still charges its own system's latencies.

// filterSlot is a MixAssets' cache-filter log and the claim on
// recording it.
type filterSlot struct {
	mu        sync.Mutex
	recording bool             // a run holds the claim
	log       *cache.FilterLog // published by a completed recording
}

// claim returns the published log to replay (record false), or a fresh
// log for the caller to record (record true; the caller then holds the
// claim and must release it), or nil when another run is recording:
// the caller runs live rather than waiting, so the outcome cannot
// depend on scheduling.
func (f *filterSlot) claim(ops uint64) (log *cache.FilterLog, record bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.log != nil:
		return f.log, false
	case f.recording:
		return nil, false
	}
	f.recording = true
	return cache.NewFilterLog(int(ops)), true
}

// release ends a recording claim. Only a run that completed every op
// publishes its log; after a panic or cancellation the next run
// records afresh.
func (f *filterSlot) release(log *cache.FilterLog, completed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recording = false
	if completed {
		f.log = log
	}
}

// filterCaches connects a one-core machine running on shared assets
// to their cache-filter log: it replays a published log, or records
// one and returns the release to call, with whether the run completed,
// once the run ends. Multi-core machines keep the live hierarchy (their
// interleave follows each core's clock, which differs per system), as
// do runs whose op count or footprint scale differs from the assets'
// and images too large for the log's 32-bit line addresses.
func (m *machine) filterCaches() (release func(completed bool)) {
	a := m.cfg.Assets
	if a == nil || len(m.cores) != 1 || a.ops != m.cfg.Ops || a.scale != m.cfg.FootprintScale ||
		m.streams[0].Image().Lines() >= cache.FilterLines {
		return nil
	}
	log, record := a.filter.claim(m.cfg.Ops)
	switch {
	case log == nil:
		return nil
	case !record:
		m.hiers[0].Replay(log)
		return nil
	}
	m.hiers[0].Record(log)
	return func(completed bool) { a.filter.release(log, completed) }
}
