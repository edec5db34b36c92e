// Package cache implements set-associative write-back caches and the
// three-level hierarchy of the paper's simulated cores (Tab. III:
// 64 KB L1D, 512 KB L2, 2 MB L3 per core / 8 MB shared for 4 cores,
// 64-byte lines, LRU replacement, write-allocate).
//
// The caches track tags and dirty bits only; line *values* live in the
// workload's memory image. What the memory controller model consumes
// is exactly what a real one sees: the LLC fill (read) and dirty
// writeback stream.
package cache

import (
	"fmt"

	"compresso/internal/obs"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Stats holds per-cache event counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the miss ratio (0 when there were no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// Register records the counters into r under prefix (canonically the
// cache's name, e.g. "cache.l3"), plus the derived miss-rate gauge
// when the cache saw traffic.
func (s Stats) Register(r *obs.Registry, prefix string) {
	r.AddStruct(prefix, s)
	if s.Accesses() > 0 {
		r.Gauge(prefix + ".miss_rate").Set(s.MissRate())
	}
}

// Each way's full state packs into one uint64:
//
//	bit  0     valid
//	bit  1     dirty
//	bits 2-25  tag (24 bits)
//	bits 26-63 LRU timestamp (38 bits)
//
// An invalid way is exactly 0. The timestamp occupies the top bits and
// is unique per Access (one tick each), so comparing whole words
// orders ways by recency — the tag and flag bits can never decide a
// comparison — and the minimum word in a set is the first invalid way
// when one exists, else the LRU way. Packing a way into 8 bytes keeps
// the simulated tag arrays half the size of a split layout: the tag
// scan per level is the simulator's hottest loop and its arrays (up to
// megabytes for a shared L3) are what the host's own caches must hold.
const (
	metaValid = 1 << 0
	metaDirty = 1 << 1
	tagShift  = 2
	tagBits   = 24
	tagMask   = 1<<tagBits - 1
	tickShift = tagShift + tagBits
)

// Cache is one set-associative write-back cache level. Addresses are in
// line units (byte address / 64). Not safe for concurrent use.
type Cache struct {
	name     string
	sets     uint64
	setShift uint // log2(sets): tag = lineAddr >> setShift
	ways     int
	data     []uint64 // sets*ways packed way words, row-major
	tick     uint64
	stats    Stats
}

// New builds a cache of sizeBytes capacity with the given
// associativity. sizeBytes must be a multiple of ways*LineSize and the
// resulting set count must be a power of two (true for all the paper's
// configurations).
func New(name string, sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || sizeBytes%(ways*LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d", name, sizeBytes, ways))
	}
	sets := uint64(sizeBytes / (ways * LineSize))
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	shift := uint(0)
	for s := sets; s > 1; s >>= 1 {
		shift++
	}
	return &Cache{
		name:     name,
		sets:     sets,
		setShift: shift,
		ways:     ways,
		data:     make([]uint64, int(sets)*ways),
	}
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without flushing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setBase returns the first way index of lineAddr's set.
func (c *Cache) setBase(lineAddr uint64) int {
	return int(lineAddr&(c.sets-1)) * c.ways
}

// Victim describes an evicted line.
type Victim struct {
	LineAddr uint64
	Dirty    bool
}

// Access looks up lineAddr, allocating it on a miss. write marks the
// line dirty. It returns whether the lookup hit and, when an eviction
// was needed, the victim line (ok=false when an invalid way was
// filled).
func (c *Cache) Access(lineAddr uint64, write bool) (hit bool, victim Victim, evicted bool) {
	c.tick++
	base := c.setBase(lineAddr)
	tag := lineAddr >> c.setShift
	set := c.data[base : base+c.ways]
	want := tag<<tagShift | metaValid
	vi := 0
	vmeta := ^uint64(0)
	for i, w := range set {
		if w&(tagMask<<tagShift|metaValid) == want {
			m := c.tick<<tickShift | want | w&metaDirty
			if write {
				m |= metaDirty
			}
			// Move-to-front: hits overwhelmingly re-touch the MRU line,
			// so keeping it in way 0 makes the next scan one compare.
			// Way order within a set is unobservable — LRU compares
			// timestamps, not positions, and every invalid way is
			// interchangeable — so this is pure layout.
			if i != 0 {
				set[i] = set[0]
			}
			set[0] = m
			c.stats.Hits++
			return true, Victim{}, false
		}
		if w < vmeta {
			vmeta, vi = w, i
		}
	}
	c.stats.Misses++
	if tag > tagMask {
		panic(fmt.Sprintf("cache %s: line address %#x overflows the packed tag width", c.name, lineAddr))
	}
	if vmeta&metaValid != 0 {
		victim = Victim{
			LineAddr: (vmeta>>tagShift&tagMask)<<c.setShift + lineAddr&(c.sets-1),
			Dirty:    vmeta&metaDirty != 0,
		}
		evicted = true
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	m := c.tick<<tickShift | tag<<tagShift | metaValid
	if write {
		m |= metaDirty
	}
	set[vi] = m
	return false, victim, evicted
}

// Contains reports whether lineAddr is cached (without touching LRU).
func (c *Cache) Contains(lineAddr uint64) bool {
	base := c.setBase(lineAddr)
	want := lineAddr>>c.setShift<<tagShift | metaValid
	for i := 0; i < c.ways; i++ {
		if c.data[base+i]&(tagMask<<tagShift|metaValid) == want {
			return true
		}
	}
	return false
}

// MemoryEvent is what the hierarchy emits toward the memory controller.
type MemoryEvent struct {
	LineAddr uint64
	Write    bool // true for a dirty LLC writeback, false for a fill
}

// Hierarchy is a three-level cache stack. On an LLC miss it emits a
// fill event; dirty evictions propagate down and eventually emit
// writeback events.
type Hierarchy struct {
	L1, L2, L3 *Cache
	// Events collects the memory-bound events of the latest Access in
	// issue order (at most: 1 fill + writebacks).
	Events []MemoryEvent

	// rec, when non-nil, receives the outcome of every live Access;
	// play, when non-nil, supplies every Access instead of the caches,
	// from op playOp and writeback playWB on (filter.go). privRec and
	// privPlay do the same for the private levels alone, with playWB
	// counting L3 installs.
	rec, play         *FilterLog
	privRec, privPlay *PrivateLog
	playOp            opCursor
	playWB            int

	// lead, when non-nil, supplies every Access: its latest one, whose
	// level is level (filter.go).
	lead  *Hierarchy
	level int
}

// NewHierarchy builds the paper's single-core hierarchy with the given
// L3 (pass a shared L3 for multi-core setups).
func NewHierarchy(l3 *Cache) *Hierarchy {
	return &Hierarchy{
		L1: New("l1d", 64<<10, 8),
		L2: New("l2", 512<<10, 8),
		L3: l3,
	}
}

// ResetStats clears the counters of every level (note a shared L3 is
// reset too).
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
}

// Access runs one CPU load/store through the hierarchy. It returns the
// level that served the request (1, 2, 3) or 4 for main memory, and
// populates h.Events with the memory traffic this access generated.
func (h *Hierarchy) Access(lineAddr uint64, write bool) int {
	switch {
	case h.play != nil:
		h.level = h.replay(lineAddr)
	case h.lead != nil:
		return h.follow()
	case h.privPlay != nil:
		h.level = h.replayPrivate(lineAddr)
	case h.rec != nil:
		before := h.L3.stats
		h.level = h.access(lineAddr, write)
		h.rec.add(h.level, before, h.L3.stats, h.Events)
	case h.privRec != nil:
		installs := len(h.privRec.installs)
		h.level = h.access(lineAddr, write)
		h.privRec.add(h.level, len(h.privRec.installs)-installs)
	default:
		h.level = h.access(lineAddr, write)
	}
	return h.level
}

// access is Access on the live caches.
func (h *Hierarchy) access(lineAddr uint64, write bool) int {
	h.Events = h.Events[:0]

	if hit, _, _ := h.accessLevel(h.L1, h.L2, lineAddr, write); hit {
		return 1
	}
	// L1 missed (allocation and its eviction already handled).
	if hit, _, _ := h.accessLevel(h.L2, h.L3, lineAddr, false); hit {
		return 2
	}
	return h.accessL3(lineAddr)
}

// accessL3 is the demand access to L3 of a line both private levels
// missed: it returns 3 on a hit, else emits the fill and returns 4.
func (h *Hierarchy) accessL3(lineAddr uint64) int {
	hit, victim, evicted := h.L3.Access(lineAddr, false)
	if evicted && victim.Dirty {
		h.Events = append(h.Events, MemoryEvent{LineAddr: victim.LineAddr, Write: true})
	}
	if hit {
		return 3
	}
	h.Events = append(h.Events, MemoryEvent{LineAddr: lineAddr, Write: false})
	return 4
}

// accessLevel accesses upper; a dirty victim is installed into lower
// (which may itself evict, cascading into h.Events when lower is L3).
func (h *Hierarchy) accessLevel(upper, lower *Cache, lineAddr uint64, write bool) (bool, Victim, bool) {
	hit, victim, evicted := upper.Access(lineAddr, write)
	if evicted && victim.Dirty {
		h.installDirty(lower, victim.LineAddr)
	}
	return hit, victim, evicted
}

// installDirty writes a dirty line into level c (write-allocate). Any
// dirty line this displaces cascades further down; below L3 is memory.
func (h *Hierarchy) installDirty(c *Cache, lineAddr uint64) {
	if c == h.L3 && h.privRec != nil {
		h.privRec.install(lineAddr)
	}
	_, victim, evicted := c.Access(lineAddr, true)
	if !evicted || !victim.Dirty {
		return
	}
	switch c {
	case h.L2:
		h.installDirty(h.L3, victim.LineAddr)
	case h.L3:
		h.Events = append(h.Events, MemoryEvent{LineAddr: victim.LineAddr, Write: true})
	default:
		panic("cache: installDirty on unexpected level")
	}
}
