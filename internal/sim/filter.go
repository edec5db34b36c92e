package sim

import (
	"fmt"
	"sync"

	"compresso/internal/cache"
	"compresso/internal/memctl"
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
// the stream runs. A one-core log depends on the L3 geometry and so
// sets l3Bytes; a private log depends on the line addresses its core's
// base page gives the stream, which select the L1/L2 sets, and so sets
// base. The two kinds live in separate tables.
type filterKey struct {
	profile   string
	seed, ops uint64
	l3Bytes   int
	base      uint64
}

// oneCoreKey is the key of a one-core machine's log.
func oneCoreKey(prof workload.Profile, seed, ops uint64, l3Bytes int) filterKey {
	return filterKey{profile: fmt.Sprintf("%#v", prof), seed: seed, ops: ops, l3Bytes: l3Bytes}
}

// privateKey is the key of one core's private-level log.
func privateKey(prof workload.Profile, seed, ops, base uint64) filterKey {
	return filterKey{profile: fmt.Sprintf("%#v", prof), seed: seed, ops: ops, base: base}
}

// filterSlot is one key's log of type L and the claim on recording it.
type filterSlot[L any] struct {
	recording bool // a run holds the claim
	log       *L   // published by a completed recording
}

// filterTable holds the logs of type L by key.
type filterTable[L any] struct {
	mu    sync.Mutex
	slots map[filterKey]*filterSlot[L]
}

// filterTables is a set of one-core and private-level logs.
type filterTables struct {
	one     filterTable[cache.FilterLog]
	private filterTable[cache.PrivateLog]
}

// processFilters holds every log the process has recorded. A log is
// about one byte per op plus four per writeback or L3 install, so the
// logs stay for the process's life.
var processFilters filterTables

// claim returns key's published log to replay, or nil with record true
// when the caller takes the claim to record a fresh log (it must then
// release it), or nil with record false when another run is recording:
// the caller runs live rather than waiting, so the outcome cannot
// depend on scheduling.
func (t *filterTable[L]) claim(key filterKey) (log *L, record bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots[key]
	if s == nil {
		if t.slots == nil {
			t.slots = make(map[filterKey]*filterSlot[L])
		}
		s = &filterSlot[L]{}
		t.slots[key] = s
	}
	switch {
	case s.log != nil:
		return s.log, false
	case s.recording:
		return nil, false
	}
	s.recording = true
	return nil, true
}

// release ends a recording claim on key. Only a run that completed
// every op publishes its log; after a panic or cancellation the next
// run records afresh.
func (t *filterTable[L]) release(key filterKey, log *L, completed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots[key]
	s.recording = false
	if completed {
		s.log = log
	}
}

// filterCaches connects a machine to its cache-filter logs in m.filters:
// one core's whole hierarchy to its one-core log, several cores' private
// levels each to its core's private log. Each log is replayed when
// published, else recorded when unclaimed, else left live. It returns
// the release to call, with whether the run completed, once the run
// ends (nil when nothing records). Images too large for the logs'
// 32-bit line addresses keep the live caches.
func (m *machine) filterCaches() (release func(completed bool)) {
	n := len(m.cores)
	if m.base[n-1]*memctl.LinesPerPage+m.streams[n-1].Image().Lines() >= cache.FilterLines {
		return nil
	}
	if n == 1 {
		key := oneCoreKey(m.profs[0], m.cfg.Seed, m.cfg.Ops, m.l3Bytes)
		return filterInto(&m.filters.one, key, cache.NewFilterLog, (*cache.FilterLog).Finish,
			m.hiers[0].Replay, m.hiers[0].Record)
	}
	var releases []func(bool)
	for i, h := range m.hiers {
		key := privateKey(m.profs[i], workload.CoreSeed(m.cfg.Seed, i), m.cfg.Ops, m.base[i])
		if r := filterInto(&m.filters.private, key, cache.NewPrivateLog, (*cache.PrivateLog).Finish,
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
func filterInto[L any](table *filterTable[L], key filterKey, fresh func(int) *L, finish, replay, record func(*L)) func(bool) {
	log, rec := table.claim(key)
	switch {
	case log != nil:
		replay(log)
		return nil
	case !rec:
		return nil
	}
	log = fresh(int(key.ops))
	record(log)
	return func(completed bool) {
		if completed {
			finish(log)
		}
		table.release(key, log, completed)
	}
}
