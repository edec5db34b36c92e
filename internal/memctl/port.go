package memctl

import (
	"compresso/internal/dram"
	"compresso/internal/obs"
)

// Port is a controller's one path to its DRAM: every access a backend
// issues goes through it, so how an access is issued, which Stats
// counter it lands in and how its cycles enter the attribution ledger
// (DESIGN.md §14) are written once, here. A port owns the DRAM it
// issues to, a pointer to its controller's Stats, the controller's
// ledger and the free-prefetch buffer of recently read machine lines.
// Backends without a prefetch buffer get a zero-capacity one, which
// holds nothing.
//
// Metadata entries live at machine line == OSPA page, one line per
// page below the data region (CompressedMachineBytes).
type Port struct {
	mem      *dram.Memory
	stats    *Stats
	attr     *obs.Attribution
	prefetch LineFIFO
}

// NewPort returns a port issuing to mem and counting into stats, with
// a free-prefetch buffer of prefetch machine lines (0 for none).
func NewPort(mem *dram.Memory, stats *Stats, prefetch int) Port {
	return Port{mem: mem, stats: stats, prefetch: NewLineFIFO(prefetch)}
}

// SetAttribution installs the cycle-accounting ledger (nil disables).
func (p *Port) SetAttribution(a *obs.Attribution) { p.attr = a }

// Attr returns the ledger, for the charges a backend makes itself.
func (p *Port) Attr() *obs.Attribution { return p.attr }

// Access issues one DRAM access and returns its completion cycle and
// (queue, service) breakdown, counting and charging nothing: for the
// accesses a backend accounts itself (a mispredicted-location probe
// whose whole window is exposed, an audit repair write).
func (p *Port) Access(now, line uint64, write bool) (done, queue, service uint64) {
	done = p.mem.Access(now, line, write)
	queue, service = p.mem.LastBreakdown()
	return done, queue, service
}

// Hidden issues one off-path access (page movement, repacking) and
// charges its cycles hidden under comp. Callers count it in the Stats
// category they own.
func (p *Port) Hidden(now, line uint64, write bool, comp obs.Component) uint64 {
	done, queue, service := p.Access(now, line, write)
	p.attr.Hidden(comp, queue+service)
	return done
}

// Read is the demand read of the machine lines one span covers, all
// issued at start. The first line counts DataReads and the rest count
// SplitAccesses; a line in the prefetch buffer counts PrefetchHits and
// issues nothing. It returns the dominant access's completion cycle
// and breakdown (start and zeros when nothing was issued) and charges
// every other access hidden as split. The dominant access is the one
// completing last, the first on ties: since all issue at start, its
// queue+service spans start..done exactly. The caller decides whether
// the dominant breakdown is exposed (the demand segment) or hidden.
func (p *Port) Read(start uint64, lines ...uint64) (done, queue, service uint64) {
	done = start
	for i, line := range lines {
		if p.prefetch.Contains(line) {
			p.stats.PrefetchHits++
			continue
		}
		d, q, s := p.Access(start, line, false)
		if i == 0 {
			p.stats.DataReads++
		} else {
			p.stats.SplitAccesses++
		}
		p.prefetch.Push(line)
		if d > done {
			p.attr.Hidden(obs.CompSplit, queue+service)
			done, queue, service = d, q, s
		} else {
			p.attr.Hidden(obs.CompSplit, q+s)
		}
	}
	return done, queue, service
}

// Write is the posted demand write of the one or two machine lines one
// span covers, issued at now: the first counts DataWrites and is
// charged hidden as DRAM time, a split second half counts
// SplitAccesses and is charged hidden as split.
func (p *Port) Write(now uint64, lines ...uint64) {
	for i, line := range lines {
		_, queue, service := p.Access(now, line, true)
		if i == 0 {
			p.stats.DataWrites++
			p.attr.HiddenDRAM(queue, service)
		} else {
			p.stats.SplitAccesses++
			p.attr.Hidden(obs.CompSplit, queue+service)
		}
	}
}

// MetadataRead fetches page's metadata line on a metadata-cache miss,
// counting MetadataReads, and returns the completion cycle. The caller
// charges the done-now window exposed or hidden under md_fetch.
func (p *Port) MetadataRead(now, page uint64) uint64 {
	p.stats.MetadataReads++
	done, _, _ := p.Access(now, page, false)
	return done
}

// MetadataWriteback writes back an evicted dirty metadata line,
// counting MetadataWrites and charging it hidden under md_fetch.
func (p *Port) MetadataWriteback(now, page uint64) {
	p.stats.MetadataWrites++
	p.Hidden(now, page, true, obs.CompMDFetch)
}
