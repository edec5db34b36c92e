// Package oskernel models the two operating-system behaviours the
// paper's evaluation depends on, without making the OS
// compression-aware:
//
//   - Pager: page-granular LRU paging under a byte budget — the
//     mechanism behind the memory-capacity impact evaluation (§VI-A's
//     cgroups-constrained runs). Every page touch either hits the
//     resident set or faults and evicts the LRU page. The capacity
//     package replays it in one pass from stack depths and is checked
//     against this model.
//   - Balloon: the §V-B ballooning driver. When the hardware runs out
//     of machine memory, the Compresso driver inflates, the guest OS
//     surrenders its coldest pages, and the hardware marks them
//     invalid — keeping the OS fully compression-unaware.
package oskernel

import (
	"container/list"

	"compresso/internal/memctl"
)

// Pager is an LRU paging model over 4 KB pages with a byte budget.
//
// It is the reference model for the capacity evaluation's stage 2:
// capacity.Recording.At replays a touch stream for every storage model
// in one pass over precomputed LRU stack depths, and the capacity
// tests (FuzzStackReplayMatchesPager, TestProfileAtMatchesOneShot)
// require that replay to fault exactly where a Pager does.
type Pager struct {
	budget int64 // bytes; <0 means unconstrained
	lru    *list.List
	pages  map[uint64]*list.Element

	touches uint64
	faults  uint64
}

// NewPager creates a pager with the given budget in bytes
// (negative = unconstrained).
func NewPager(budgetBytes int64) *Pager {
	return &Pager{
		budget: budgetBytes,
		lru:    list.New(),
		pages:  make(map[uint64]*list.Element),
	}
}

// SetBudget changes the budget (the paper's dynamic cgroups
// adjustment); shrinking evicts immediately.
func (p *Pager) SetBudget(bytes int64) {
	p.budget = bytes
	p.evictToBudget()
}

// Budget returns the current budget.
func (p *Pager) Budget() int64 { return p.budget }

func (p *Pager) residentBytes() int64 {
	return int64(p.lru.Len()) * memctl.PageSize
}

func (p *Pager) evictToBudget() {
	if p.budget < 0 {
		return
	}
	for p.residentBytes() > p.budget && p.lru.Len() > 0 {
		back := p.lru.Back()
		delete(p.pages, back.Value.(uint64))
		p.lru.Remove(back)
	}
}

// Touch records an access to page, returning whether it faulted
// (was not resident).
func (p *Pager) Touch(page uint64) bool {
	p.touches++
	if el, ok := p.pages[page]; ok {
		p.lru.MoveToFront(el)
		return false
	}
	p.faults++
	p.pages[page] = p.lru.PushFront(page)
	p.evictToBudget()
	return true
}

// Faults returns the fault count.
func (p *Pager) Faults() uint64 { return p.faults }

// Touches returns the touch count.
func (p *Pager) Touches() uint64 { return p.touches }

// Resident returns the resident page count.
func (p *Pager) Resident() int { return p.lru.Len() }

// FaultRate returns faults per touch.
func (p *Pager) FaultRate() float64 {
	if p.touches == 0 {
		return 0
	}
	return float64(p.faults) / float64(p.touches)
}

// Discarder is the controller-side hook a balloon reclaims through
// (implemented by both the Compresso and LCP controllers).
type Discarder interface {
	Discard(page uint64)
	FreeMachineChunks() int
}

// Balloon is the §V-B driver model: it tracks page temperature via the
// same LRU the pager uses and, on memory pressure, "inflates" by
// claiming the coldest OSPA pages from the guest OS and telling the
// hardware to invalidate them. Liu et al.'s measurement (cited in the
// paper) puts reclaim throughput around 1 GB / 500 ms; ReclaimCycles
// charges that cost per reclaimed page at 3 GHz.
type Balloon struct {
	ctl Discarder
	lru *list.List
	el  map[uint64]*list.Element

	// WatermarkChunks is the free-chunk level the balloon restores on
	// each pressure event.
	WatermarkChunks int

	// ReclaimCyclesPerPage is the modeled cost of reclaiming one page
	// (default: 500 ms/GB at 3 GHz ≈ 5,700 cycles per 4 KB page).
	ReclaimCyclesPerPage uint64

	reclaimed    uint64
	reclaimCost  uint64
	pressureHits uint64
}

// NewBalloon builds a balloon driver over ctl.
func NewBalloon(ctl Discarder, watermarkChunks int) *Balloon {
	return &Balloon{
		ctl:                  ctl,
		lru:                  list.New(),
		el:                   make(map[uint64]*list.Element),
		WatermarkChunks:      watermarkChunks,
		ReclaimCyclesPerPage: 5700,
	}
}

// Note records that the guest touched an OSPA page (temperature
// tracking). Call it from the access path or a coarse sample of it.
func (b *Balloon) Note(page uint64) {
	if el, ok := b.el[page]; ok {
		b.lru.MoveToFront(el)
		return
	}
	b.el[page] = b.lru.PushFront(page)
}

// Forget drops a page from temperature tracking (it was discarded by
// someone else).
func (b *Balloon) Forget(page uint64) {
	if el, ok := b.el[page]; ok {
		b.lru.Remove(el)
		delete(b.el, page)
	}
}

// OnPressure is the memctl pressure callback: it reclaims cold pages
// until the free watermark is restored. It reports whether any memory
// was freed.
func (b *Balloon) OnPressure(needChunks int) bool {
	b.pressureHits++
	freedAny := false
	target := b.WatermarkChunks
	if needChunks > target {
		target = needChunks
	}
	for b.ctl.FreeMachineChunks() < target && b.lru.Len() > 0 {
		back := b.lru.Back()
		page := back.Value.(uint64)
		b.lru.Remove(back)
		delete(b.el, page)
		b.ctl.Discard(page)
		b.reclaimed++
		b.reclaimCost += b.ReclaimCyclesPerPage
		freedAny = true
	}
	return freedAny
}

// Reclaimed returns the number of pages ballooned away.
func (b *Balloon) Reclaimed() uint64 { return b.reclaimed }

// ReclaimCost returns the cumulative modeled reclaim cost in cycles.
func (b *Balloon) ReclaimCost() uint64 { return b.reclaimCost }

// PressureEvents returns how often the hardware signalled pressure.
func (b *Balloon) PressureEvents() uint64 { return b.pressureHits }
