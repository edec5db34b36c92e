package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"compresso/internal/dram"
	"compresso/internal/obs"
	"compresso/internal/sim"
)

// cellResult is one system's outcome in a repetition: exactly one of
// Single, Mix and Err is set.
type cellResult struct {
	System string
	Single *sim.Result
	Mix    *sim.MultiResult
	Err    error
}

// cellOutcome is a cell as the parent process accounts it.
type cellOutcome struct {
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"` // sha256 of the result JSON
	Err    string `json:"err,omitempty"`    // panic, error or broken invariant
}

// protect runs f, turning a panic into an error so the remaining cells
// still run.
func protect[T any](f func() T) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f(), nil
}

// digest is the sha256 of v's JSON encoding (of v itself for a string).
func digest(v any) string {
	b, ok := v.(string)
	if !ok {
		enc, err := json.Marshal(v)
		if err != nil {
			return "unencodable: " + err.Error()
		}
		b = string(enc)
	}
	sum := sha256.Sum256([]byte(b))
	return hex.EncodeToString(sum[:])
}

// check digests each cell and applies the invariants any correct model
// satisfies, whatever its cycle counts: the uncompressed baseline has
// ratio 1 and no extra accesses, the attribution ledger conserves every
// access, and single-core systems see the same instruction count and
// L3 hits and misses (caches track addresses only, and every system
// replays the same trace).
func check(cells []cellResult) []cellOutcome {
	out := make([]cellOutcome, len(cells))
	var first *sim.Result
	for i, c := range cells {
		o := cellOutcome{Name: c.System}
		switch {
		case c.Err != nil:
			o.Err = c.Err.Error()
		case c.Single != nil:
			r := c.Single
			o.Digest = digest(r)
			o.Err = checkCommon(r.System, r.Ratio, r.Mem.RelativeExtra(), r.Attribution)
			if first == nil {
				first = r
			} else if o.Err == "" && (r.CPU.Instrs != first.CPU.Instrs || r.L3.Hits != first.L3.Hits || r.L3.Misses != first.L3.Misses) {
				o.Err = fmt.Sprintf("instrs/L3 hits/L3 misses %d/%d/%d differ from %s's %d/%d/%d",
					r.CPU.Instrs, r.L3.Hits, r.L3.Misses, first.System, first.CPU.Instrs, first.L3.Hits, first.L3.Misses)
			}
		case c.Mix != nil:
			r := c.Mix
			o.Digest = digest(r)
			o.Err = checkCommon(r.System, r.Ratio, r.Mem.RelativeExtra(), r.Attribution)
		}
		out[i] = o
	}
	return out
}

func checkCommon(system string, ratio, extra float64, attr obs.AttributionSnapshot) string {
	if system == string(sim.Uncompressed) && (ratio != 1 || extra != 0) {
		return fmt.Sprintf("uncompressed baseline reports ratio %v and relative extra %v", ratio, extra)
	}
	if attr.Violations != 0 {
		return fmt.Sprintf("%d attribution conservation violations (first: %s)", attr.Violations, attr.FirstViolation)
	}
	return ""
}

// tally counts attempted and failed cells over a run's repetitions. A
// cell fails when it reported an error, or when its digest differs from
// the same cell's digest in the first untraced repetition: a traced
// rebuild must reproduce the simulator's own output byte for byte.
func tally(reps []repRecord) (attempted, failed int, problems []string) {
	ref := map[string]string{}
	for _, r := range reps {
		if r.Kind == repPlain {
			for _, c := range r.Cells {
				if c.Err == "" {
					ref[c.Name] = c.Digest
				}
			}
			break
		}
	}
	for i, r := range reps {
		for _, c := range r.Cells {
			attempted++
			msg := c.Err
			if want, ok := ref[c.Name]; ok && msg == "" && c.Digest != want {
				msg = "digest " + short(c.Digest) + " differs from the first repetition's " + short(want)
			}
			if msg != "" {
				failed++
				problems = append(problems, fmt.Sprintf("rep %d (%s) %s: %s", i+1, r.Kind, c.Name, msg))
			}
		}
	}
	return attempted, failed, problems
}

func short(d string) string { return d[:min(12, len(d))] }

// modelMetrics are the simulated (host-independent) results of a
// repetition's cells, keyed by per-layer metric name.
func modelMetrics(cells []cellResult) map[string]float64 {
	m := map[string]float64{}
	var base *cellResult
	for i := range cells {
		if cells[i].System == string(sim.Uncompressed) && cells[i].Err == nil {
			base = &cells[i]
		}
	}
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		s := c.System
		if r := c.Single; r != nil {
			m["model.ipc."+s] = r.IPC
			m["model.ratio."+s] = r.Ratio
			m["model.relative_extra."+s] = r.Mem.RelativeExtra()
			m["model.mdcache_hit_rate."+s] = zeroNaN(r.MDCache.HitRate())
			m["model.dram_row_hit_rate."+s] = rowHitRate(r.Dram)
			if base != nil && base.Single.IPC > 0 {
				m["model.weighted_speedup."+s] = r.IPC / base.Single.IPC
			}
			continue
		}
		r := c.Mix
		ipc := 0.0
		for _, core := range r.Cores {
			ipc += core.IPC / float64(len(r.Cores))
		}
		m["model.ipc."+s] = ipc
		m["model.ratio."+s] = r.Ratio
		m["model.relative_extra."+s] = r.Mem.RelativeExtra()
		m["model.mdcache_hit_rate."+s] = zeroNaN(r.MDCache.HitRate())
		m["model.dram_row_hit_rate."+s] = rowHitRate(r.Dram)
		if base != nil {
			if ws, err := r.WeightedSpeedup(*base.Mix); err == nil {
				m["model.weighted_speedup."+s] = ws
			}
		}
	}
	return m
}

func rowHitRate(s dram.Stats) float64 {
	acts := s.RowHits + s.RowMisses + s.RowConflicts
	if acts == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(acts)
}

// metadataFrac is the share of charged critical-path cycles the ledger
// attributes to metadata (cache hits plus fetches).
func metadataFrac(a obs.AttributionSnapshot) float64 {
	if a.ChargedCycles == 0 {
		return 0
	}
	md := a.Components[obs.CompMDCacheHit].ExposedCycles + a.Components[obs.CompMDFetch].ExposedCycles
	return float64(md) / float64(a.ChargedCycles)
}

// zeroNaN maps the NaN a hit rate reports for no accesses to 0, which
// JSON can carry.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
