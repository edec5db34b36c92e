// Runner-level chaos: deterministic disruption of experiment grid
// cells, the execution-layer counterpart of the controller fault
// injector. Where Injector corrupts simulated state (and the
// controller must repair it), Chaos breaks the harness itself — cells
// panic, fail transiently, stall, or hard-kill the process — and the
// resilience layer (retry, quarantine, journal/resume; DESIGN.md §11)
// must carry the run to a byte-identical result anyway.
//
// Every decision is drawn from a private stream keyed by
// (seed, grid label, cell index, attempt), so a given chaos seed
// disrupts the same cells at the same attempts regardless of worker
// count or goroutine scheduling — and a retried cell re-rolls its
// fate, so transient chaos actually is transient.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"sync"
	"time"

	"compresso/internal/rng"
)

// ChaosSite identifies one class of runner-level disruption.
type ChaosSite int

const (
	// CellPanic panics the cell (a defect: never retried, quarantined
	// or fatal).
	CellPanic ChaosSite = iota
	// CellTransient fails the cell with a retryable error.
	CellTransient
	// CellDelay stalls the cell (exercises deadlines and backoff under
	// contention).
	CellDelay
	// CellKill hard-kills the process (SIGKILL semantics: no deferred
	// flushes run). Soak-test only — it takes the whole run down so the
	// journal's crash durability can be proven from outside.
	CellKill

	// NChaosSites is the number of chaos sites.
	NChaosSites
)

var chaosSiteNames = [NChaosSites]string{
	CellPanic:     "cellpanic",
	CellTransient: "celltransient",
	CellDelay:     "celldelay",
	CellKill:      "cellkill",
}

// String returns the site's spec name.
func (s ChaosSite) String() string {
	if s < 0 || s >= NChaosSites {
		return fmt.Sprintf("ChaosSite(%d)", int(s))
	}
	return chaosSiteNames[s]
}

// ChaosConfig selects per-site disruption rates (probability per cell
// attempt). The zero value disrupts nothing.
type ChaosConfig struct {
	// Seed drives the per-(label, index, attempt) decision streams.
	Seed uint64
	// Rate is the per-attempt probability per site.
	Rate [NChaosSites]float64
	// Delay is the stall applied when CellDelay fires (default 2ms).
	Delay time.Duration
}

// Enabled reports whether any site has a non-zero rate.
func (c ChaosConfig) Enabled() bool {
	for _, r := range c.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// ParseChaosSpec parses a comma-separated chaos spec such as
// "cellpanic:0.02,celltransient:0.1" into a ChaosConfig seeded with
// seed.
func ParseChaosSpec(spec string, seed uint64) (ChaosConfig, error) {
	cfg := ChaosConfig{Seed: seed}
	err := parseRates(spec, chaosWords, chaosSiteNames[:], chaosSiteNames[:], cfg.Rate[:])
	return cfg, err
}

var chaosWords = specWords{entry: "chaos entry", site: "chaos site", rate: "chaos rate"}

// ChaosTotals tallies chaos exposure and injections per site.
type ChaosTotals struct {
	Sites [NChaosSites]SiteCount
}

// Injected returns the total injected disruptions across sites.
func (t ChaosTotals) Injected() uint64 { return injected(t.Sites[:]) }

// String renders the non-zero-exposure sites compactly.
func (t ChaosTotals) String() string { return tally(t.Sites[:], chaosSiteNames[:]) }

// hardKill terminates the process with SIGKILL semantics; a variable
// so tests can intercept it.
var hardKill = func() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill() // SIGKILL on unix: no deferred flushes, no recovery
	}
	os.Exit(137) // unreachable on unix; kill fallback elsewhere
}

// Chaos disrupts grid cells deterministically. A nil *Chaos is a
// complete no-op, so callers hook it in unconditionally. Safe for
// concurrent use.
type Chaos struct {
	cfg    ChaosConfig
	mu     sync.Mutex
	totals ChaosTotals
}

// NewChaos builds a chaos injector from cfg, or nil when cfg disrupts
// nothing.
func NewChaos(cfg ChaosConfig) *Chaos {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 2 * time.Millisecond
	}
	return &Chaos{cfg: cfg}
}

// Enabled reports whether disruption is active.
func (c *Chaos) Enabled() bool { return c != nil }

// Disrupt rolls the chaos sites for one cell attempt and applies
// whatever fires: a delay stalls (honoring ctx), a kill takes the
// process down, a panic panics, and a transient failure returns a
// retryable error (the caller wraps it via its retry classification —
// the error reports itself transient through Transient() bool).
// Returns nil when the attempt proceeds undisturbed.
func (c *Chaos) Disrupt(ctx context.Context, label string, index, attempt int) error {
	if c == nil {
		return nil
	}
	r := rng.New(c.cfg.Seed ^ chaosKey(label, index, attempt))
	delay := c.roll(r, CellDelay)
	kill := c.roll(r, CellKill)
	pan := c.roll(r, CellPanic)
	transient := c.roll(r, CellTransient)
	if delay {
		t := time.NewTimer(c.cfg.Delay)
		defer t.Stop()
		if ctx == nil {
			<-t.C
		} else {
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if kill {
		hardKill()
	}
	if pan {
		panic(fmt.Sprintf("chaos: injected panic in %s[%d] attempt %d", label, index, attempt))
	}
	if transient {
		return &ChaosTransientError{Label: label, Index: index, Attempt: attempt}
	}
	return nil
}

// roll decides one site for the current attempt stream and tallies it.
func (c *Chaos) roll(r *rng.Rand, site ChaosSite) bool {
	p := c.cfg.Rate[site]
	fired := p > 0 && r.Float64() < p
	c.mu.Lock()
	c.totals.Sites[site].Opportunities++
	if fired {
		c.totals.Sites[site].Injected++
	}
	c.mu.Unlock()
	return fired
}

// Totals returns a snapshot of the counters (zero value when nil).
func (c *Chaos) Totals() ChaosTotals {
	if c == nil {
		return ChaosTotals{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// chaosKey hashes a cell attempt's identity into the decision-stream
// key.
func chaosKey(label string, index, attempt int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(index)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(attempt)))
	return h.Sum64()
}

// ChaosTransientError is the retryable failure CellTransient injects.
type ChaosTransientError struct {
	Label   string
	Index   int
	Attempt int
}

// Error implements error.
func (e *ChaosTransientError) Error() string {
	return fmt.Sprintf("chaos: injected transient failure in %s[%d] attempt %d",
		e.Label, e.Index, e.Attempt)
}

// Transient marks the failure retryable (the parallel package's
// marker-interface contract, kept import-free in both directions).
func (e *ChaosTransientError) Transient() bool { return true }
