package metadata

import (
	"fmt"
	"math"

	"compresso/internal/obs"
)

// CacheConfig sizes the memory-controller metadata cache. The paper
// uses a 96 KB 8-way cache (≥ second-level TLB reach, §IV-B5) so that
// the common case of a TLB hit is also a metadata hit.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	// HalfEntry enables the §IV-B5 optimization: entries for
	// uncompressed pages occupy only half a slot (their line sizes are
	// implicit), doubling effective capacity for incompressible
	// footprints at a small tag cost.
	HalfEntry bool
}

// DefaultCacheConfig returns the paper's 96 KB 8-way configuration with
// the half-entry optimization enabled.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{SizeBytes: 96 << 10, Ways: 8, HalfEntry: true}
}

// Line is a resident metadata-cache entry. The entry payload itself
// lives in the controller's backing store; the cache tracks residency,
// dirtiness, the half/full footprint, and the per-entry page-overflow
// predictor of §IV-B2.
type Line struct {
	Page  uint64
	Dirty bool
	// Half marks a half-entry (uncompressed page, §IV-B5).
	Half bool
	// Predictor is the 2-bit saturating local overflow counter:
	// incremented on cache-line overflow writebacks, decremented on
	// underflows; its high bit arms the page-overflow prediction.
	Predictor uint8

	used uint64
}

// PredictorHigh reports whether the local predictor's high bit is set.
func (l *Line) PredictorHigh() bool { return l.Predictor >= 2 }

// BumpPredictor saturates the 2-bit counter upward (on overflow) or
// downward (on underflow).
func (l *Line) BumpPredictor(up bool) {
	if up {
		if l.Predictor < 3 {
			l.Predictor++
		}
	} else if l.Predictor > 0 {
		l.Predictor--
	}
}

// Evicted describes an entry pushed out of the cache. Dirty entries
// cost a metadata writeback; every eviction is also the §IV-B4
// repacking trigger.
type Evicted struct {
	Page  uint64
	Dirty bool
}

// CacheStats counts metadata-cache events.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Upgrades counts half entries promoted to full entries when an
	// uncompressed page becomes compressed while resident.
	Upgrades uint64
}

// Accesses returns hits+misses.
func (s CacheStats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns the hit ratio. A cache that saw no accesses (an
// uncompressed run has no metadata) has no meaningful rate and returns
// NaN; renderers report it as "n/a" rather than a perfect cache.
func (s CacheStats) HitRate() float64 {
	if s.Accesses() == 0 {
		return math.NaN()
	}
	return float64(s.Hits) / float64(s.Accesses())
}

// Register records the counters into r under prefix (canonically
// "mdcache"), plus the derived hit-rate gauge when the cache saw
// traffic (a gauge is never NaN; zero-access runs omit it).
func (s CacheStats) Register(r *obs.Registry, prefix string) {
	r.AddStruct(prefix, s)
	if s.Accesses() > 0 {
		r.Gauge(prefix + ".hit_rate").Set(s.HitRate())
	}
}

type cacheSet struct {
	lines []*Line
}

// Cache is the metadata cache. Capacity is accounted in half-entry
// units: a full entry costs 2, a half entry 1, and each set holds
// 2*ways units. Not safe for concurrent use.
type Cache struct {
	cfg   CacheConfig
	sets  []cacheSet
	tick  uint64
	stats CacheStats
	// evicted is makeRoom's reusable result buffer (see Insert).
	evicted []Evicted
}

// NewCache builds a metadata cache from cfg.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes%(cfg.Ways*EntrySize) != 0 {
		panic(fmt.Sprintf("metadata: invalid cache config %+v", cfg))
	}
	nsets := cfg.SizeBytes / (cfg.Ways * EntrySize)
	return &Cache{cfg: cfg, sets: make([]cacheSet, nsets)}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// ResetStats clears the counters without flushing contents.
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

func (c *Cache) setOf(page uint64) *cacheSet {
	return &c.sets[page%uint64(len(c.sets))]
}

func (c *Cache) cost(half bool) int {
	if half && c.cfg.HalfEntry {
		return 1
	}
	return 2
}

func (s *cacheSet) used(c *Cache) int {
	total := 0
	for _, l := range s.lines {
		total += c.cost(l.Half)
	}
	return total
}

// Lookup returns the resident line for page, counting a hit or miss.
func (c *Cache) Lookup(page uint64) (*Line, bool) {
	s := c.setOf(page)
	for _, l := range s.lines {
		if l.Page == page {
			c.tick++
			l.used = c.tick
			c.stats.Hits++
			return l, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// Peek returns the resident line without LRU or stat effects.
func (c *Cache) Peek(page uint64) (*Line, bool) {
	for _, l := range c.setOf(page).lines {
		if l.Page == page {
			return l, true
		}
	}
	return nil, false
}

// Insert adds a line for page (which must not be resident), evicting
// LRU entries as needed, and returns the new line plus any evictions.
// The eviction slice is the cache's scratch buffer: it stays valid
// until the next Insert or Promote, so callers consume it at once.
func (c *Cache) Insert(page uint64, half bool) (*Line, []Evicted) {
	s := c.setOf(page)
	for _, l := range s.lines {
		if l.Page == page {
			panic(fmt.Sprintf("metadata: Insert of resident page %d", page))
		}
	}
	evicted := c.makeRoom(s, c.cost(half))
	c.tick++
	// Without the optimization a half entry is a full one: it costs a
	// full slot, so promoting it later has no second half to fetch.
	line := &Line{Page: page, Half: half && c.cfg.HalfEntry, used: c.tick}
	s.lines = append(s.lines, line)
	return line, evicted
}

// makeRoom evicts LRU lines from s until need units fit, returning
// them in the reused c.evicted buffer.
func (c *Cache) makeRoom(s *cacheSet, need int) []Evicted {
	capacity := 2 * c.cfg.Ways
	evicted := c.evicted[:0]
	for s.used(c)+need > capacity {
		lru := 0
		for i := 1; i < len(s.lines); i++ {
			if s.lines[i].used < s.lines[lru].used {
				lru = i
			}
		}
		v := s.lines[lru]
		s.lines = append(s.lines[:lru], s.lines[lru+1:]...)
		evicted = append(evicted, Evicted{Page: v.Page, Dirty: v.Dirty})
		c.stats.Evictions++
	}
	c.evicted = evicted
	return evicted
}

// Promote converts a resident half entry to a full entry (the page
// became compressed), evicting as needed. The caller charges the
// memory access that fetches the entry's second half. The evictions
// share Insert's scratch buffer and lifetime.
func (c *Cache) Promote(line *Line) []Evicted {
	if !line.Half {
		return nil
	}
	s := c.setOf(line.Page)
	line.Half = false // its own cost is now 2 while making room
	evicted := c.makeRoom(s, 0)
	c.stats.Upgrades++
	return evicted
}

// Demote shrinks a resident full entry to a half entry (the page
// became uncompressed). No-op when the optimization is disabled.
func (c *Cache) Demote(line *Line) {
	if c.cfg.HalfEntry {
		line.Half = true
	}
}

// ForcedMiss removes page's resident line and returns its eviction
// record — the fault-injection hook modelling a metadata-cache
// invalidation glitch. The entry is lost and must be refetched; the
// caller writes back dirty entries as for a normal eviction, so the
// glitch costs traffic and latency, never state.
func (c *Cache) ForcedMiss(page uint64) (Evicted, bool) {
	s := c.setOf(page)
	for i, l := range s.lines {
		if l.Page == page {
			s.lines = append(s.lines[:i], s.lines[i+1:]...)
			c.stats.Evictions++
			return Evicted{Page: l.Page, Dirty: l.Dirty}, true
		}
	}
	return Evicted{}, false
}

// Drop removes page from the cache without counting an eviction,
// used when a page's metadata is being discarded (ballooned away).
func (c *Cache) Drop(page uint64) {
	s := c.setOf(page)
	for i, l := range s.lines {
		if l.Page == page {
			s.lines = append(s.lines[:i], s.lines[i+1:]...)
			return
		}
	}
}

// Drain removes and returns every resident entry, dirty-first order
// not guaranteed. Used at simulation end to account outstanding
// metadata writebacks.
func (c *Cache) Drain() []Evicted {
	var out []Evicted
	for i := range c.sets {
		for _, l := range c.sets[i].lines {
			out = append(out, Evicted{Page: l.Page, Dirty: l.Dirty})
		}
		c.sets[i].lines = nil
	}
	return out
}

// Resident returns the number of resident entries (full and half).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.sets {
		n += len(c.sets[i].lines)
	}
	return n
}

// GlobalPredictor is the 3-bit global page-overflow predictor of
// §IV-B2: it saturates upward when pages overflow anywhere in the
// system and decays otherwise. A page is speculatively uncompressed
// only when both the local (per-entry) and global high bits are set.
type GlobalPredictor struct {
	counter uint8
}

// Record notes a page overflow (up=true) or a quiet repack/underflow
// event (up=false).
func (g *GlobalPredictor) Record(up bool) {
	if up {
		if g.counter < 7 {
			g.counter++
		}
	} else if g.counter > 0 {
		g.counter--
	}
}

// High reports whether the global high bit is set (counter >= 4).
func (g *GlobalPredictor) High() bool { return g.counter >= 4 }

// Value returns the raw counter (0..7).
func (g *GlobalPredictor) Value() uint8 { return g.counter }
