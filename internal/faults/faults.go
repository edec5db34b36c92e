// Package faults is a deterministic, seedable fault injector for the
// Compresso controller stack. It models the corruption classes a
// production compressed-memory controller must survive (CRAM and the
// software-defined compressed tiers of Kumar et al. both treat these
// as table stakes): bit flips in stored compressed data, bit flips in
// packed metadata entries, dropped and duplicated chunk allocations,
// forced metadata-cache invalidations, and truncated trace files.
//
// The injector is entirely pull-based: subsystems ask it whether a
// fault fires at each opportunity site (Roll), so a nil *Injector is a
// complete no-op and the hot path is bit-identical to an injector-free
// build. All draws come from one private xoshiro stream, so a given
// (seed, rate) configuration injects the same faults at the same
// opportunities on every run.
package faults

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"compresso/internal/obs"
	"compresso/internal/rng"
)

// Site identifies one class of injected fault and the opportunity it
// is rolled against.
type Site int

const (
	// DataBitFlip corrupts a stored compressed cache line; rolled per
	// demand writeback. The rate is per data bit (512 bits/line).
	DataBitFlip Site = iota
	// MetaBitFlip flips one bit of a packed 64-byte metadata entry;
	// rolled per metadata writeback. The rate is per metadata bit.
	MetaBitFlip
	// ChunkDrop leaks a machine chunk: the allocator hands it out but
	// no page records it. Rolled per chunk allocation.
	ChunkDrop
	// ChunkDup records a duplicate chunk pointer instead of a freshly
	// allocated one. Rolled per chunk allocation.
	ChunkDup
	// MDCacheMiss invalidates a resident metadata-cache entry so the
	// next lookup misses. Rolled per metadata lookup.
	MDCacheMiss
	// TraceTruncate tears a trace file mid-write: the header advertises
	// the full record count but the tail is missing. Rolled per record.
	TraceTruncate

	// NSites is the number of fault sites.
	NSites
)

var siteNames = [NSites]string{
	DataBitFlip:   "bitflip",
	MetaBitFlip:   "metaflip",
	ChunkDrop:     "chunkdrop",
	ChunkDup:      "chunkdup",
	MDCacheMiss:   "mdmiss",
	TraceTruncate: "tracetrunc",
}

// String returns the site's spec name.
func (s Site) String() string {
	if s < 0 || s >= NSites {
		return fmt.Sprintf("Site(%d)", int(s))
	}
	return siteNames[s]
}

// bitsPerOpportunity converts a per-bit rate into a per-opportunity
// probability for the bit-flip sites; event sites roll the raw rate.
func (s Site) bitsPerOpportunity() float64 {
	if s == DataBitFlip || s == MetaBitFlip {
		return 512 // one 64-byte line or packed entry
	}
	return 1
}

// Config selects fault rates. The zero value injects nothing.
type Config struct {
	// Seed drives the injector's private random stream.
	Seed uint64
	// Rate holds the per-site fault rate: probability per bit for the
	// bit-flip sites, probability per event otherwise.
	Rate [NSites]float64
}

// Enabled reports whether any site has a non-zero rate.
func (c Config) Enabled() bool {
	for _, r := range c.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// ParseSpec parses a comma-separated injection spec such as
// "bitflip:1e-6,mdmiss:1e-4" into a Config seeded with seed. accept
// lists the sites the caller can inject: a spec giving any other site a
// non-zero rate is rejected, and the errors name only accept's sites.
func ParseSpec(spec string, seed uint64, accept []Site) (Config, error) {
	cfg := Config{Seed: seed}
	names := make([]string, len(accept))
	for i, s := range accept {
		names[i] = s.String()
	}
	err := parseRates(spec, injectWords, siteNames[:], names, cfg.Rate[:])
	return cfg, err
}

// specWords are the nouns a spec's error messages use.
type specWords struct{ entry, site, rate string }

var injectWords = specWords{entry: "spec entry", site: "site", rate: "rate"}

// parseRates parses a comma-separated "site:rate" spec into rate,
// indexed like names. Only the sites named in accept may take a
// non-zero rate, and the errors list just those.
func parseRates(spec string, w specWords, names, accept []string, rate []float64) error {
	have := strings.Join(accept, ", ")
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("faults: bad %s %q (want site:rate)", w.entry, part)
		}
		site := slices.Index(names, name)
		if site < 0 {
			return fmt.Errorf("faults: unknown %s %q (have %s)", w.site, name, have)
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil || r < 0 || r > 1 {
			return fmt.Errorf("faults: bad %s %q for site %s", w.rate, val, name)
		}
		if r > 0 && !slices.Contains(accept, name) {
			return fmt.Errorf("faults: site %s cannot be injected here (have %s)", name, have)
		}
		rate[site] = r
	}
	return nil
}

// SiteCount is one site's exposure and injection tally.
type SiteCount struct {
	Opportunities uint64
	Injected      uint64
}

// Totals is a snapshot of the injector's counters, embeddable in
// simulation results.
type Totals struct {
	Sites      [NSites]SiteCount
	DRAMReads  uint64
	DRAMWrites uint64
}

// Injected returns the total number of injected faults across sites.
func (t Totals) Injected() uint64 { return injected(t.Sites[:]) }

// String renders the non-zero-exposure sites compactly.
func (t Totals) String() string {
	return fmt.Sprintf("%s (dram %d reads / %d writes observed)",
		tally(t.Sites[:], siteNames[:]), t.DRAMReads, t.DRAMWrites)
}

// injected sums the injections across sites.
func injected(sites []SiteCount) uint64 {
	var n uint64
	for _, c := range sites {
		n += c.Injected
	}
	return n
}

// tally renders each exposed site as "name injected/opportunities",
// sorted by name, or "no opportunities" when none was exposed.
func tally(sites []SiteCount, names []string) string {
	var parts []string
	for s, c := range sites {
		if c.Opportunities == 0 && c.Injected == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %d/%d", names[s], c.Injected, c.Opportunities))
	}
	if len(parts) == 0 {
		return "no opportunities"
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Register records per-site opportunity/injection counters and the
// DRAM exposure tallies into r under prefix (canonically "faults"):
// faults.<site>.opportunities, faults.<site>.injected,
// faults.dram_reads, faults.dram_writes.
func (t Totals) Register(r *obs.Registry, prefix string) {
	for s := Site(0); s < NSites; s++ {
		r.Counter(prefix + "." + s.String() + ".opportunities").Set(t.Sites[s].Opportunities)
		r.Counter(prefix + "." + s.String() + ".injected").Set(t.Sites[s].Injected)
	}
	r.Counter(prefix + ".dram_reads").Set(t.DRAMReads)
	r.Counter(prefix + ".dram_writes").Set(t.DRAMWrites)
}

// Injector decides, deterministically, whether each fault opportunity
// fires. All methods are safe on a nil receiver (and inject nothing),
// so callers hook it in unconditionally.
type Injector struct {
	cfg    Config
	r      *rng.Rand
	totals Totals
}

// New builds an injector from cfg, or returns nil when cfg injects
// nothing (so the disabled case is a nil receiver end to end).
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, r: rng.New(cfg.Seed ^ 0xfa017)}
}

// Enabled reports whether injection is active.
func (in *Injector) Enabled() bool { return in != nil }

// Roll records one opportunity at site and reports whether the fault
// fires. Sites with a zero rate consume no randomness, so enabling one
// site does not perturb another's decisions.
func (in *Injector) Roll(site Site) bool {
	if in == nil {
		return false
	}
	c := &in.totals.Sites[site]
	c.Opportunities++
	p := in.cfg.Rate[site] * site.bitsPerOpportunity()
	if p <= 0 {
		return false
	}
	if in.r.Float64() >= p {
		return false
	}
	c.Injected++
	return true
}

// FlipBit flips one uniformly chosen bit of buf and returns its index
// (-1 on a nil injector or empty buffer).
func (in *Injector) FlipBit(buf []byte) int {
	if in == nil || len(buf) == 0 {
		return -1
	}
	bit := in.r.Intn(len(buf) * 8)
	buf[bit/8] ^= 1 << (bit % 8)
	return bit
}

// NoteDRAM observes one DRAM access (the internal/dram hook); it only
// tallies exposure so fault rates can be read against real traffic.
func (in *Injector) NoteDRAM(lineAddr uint64, write bool) {
	if in == nil {
		return
	}
	_ = lineAddr
	if write {
		in.totals.DRAMWrites++
	} else {
		in.totals.DRAMReads++
	}
}

// Totals returns a snapshot of the counters (zero value when nil).
func (in *Injector) Totals() Totals {
	if in == nil {
		return Totals{}
	}
	return in.totals
}
