package experiments

import (
	"math"
	"slices"
	"testing"

	"compresso/internal/capacity"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// TestDualFracIsTab2Frac: Figs. 10 and 11 read their capacity half at
// dualFrac from the capacity cells, which evaluate only Tab. II's
// fractions.
func TestDualFracIsTab2Frac(t *testing.T) {
	if !slices.Contains(tab2Fracs[:], dualFrac) {
		t.Fatalf("dualFrac %v is not one of tab2Fracs %v", dualFrac, tab2Fracs)
	}
}

// TestCapacityCellsShared: Fig. 10, Fig. 11 and Tab. II profile each
// distinct capacity cell once. Fig. 10's benchmarks (at three times the
// sweep's ops) and Tab. II's (at twice) are distinct cells; Tab. II's
// mix cells serve Fig. 11 too. Every Fig. 11 row's capacity half is
// bit-equal to a direct profile of its mix at dualFrac.
func TestCapacityCellsShared(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("dual methodology is slow")
	}
	// The run memo may keep earlier tests' cycle runs: they do not
	// touch the capacity cells.
	fig10Cache.Reset()
	fig11Cache.Reset()
	capCache.Reset()
	defer resetMemos()
	opt := quickOpts()
	Fig10Data(opt)
	rows, err := Fig11Data(opt)
	if err != nil {
		t.Fatal(err)
	}
	Tab2Data(opt)
	cells := capCache.Len()
	if want := 2*len(workload.PerformanceSet()) + len(sim.Mixes()); cells != want {
		t.Fatalf("capacity memo holds %d cells, want %d", cells, want)
	}

	mixes := sim.Mixes()
	for m, row := range rows {
		profs := mixes[m].Profiles()
		cfg := capacity.DefaultConfig()
		cfg.Ops = opt.ops()
		cfg.FootprintScale = opt.scale()
		cfg.Seed = opt.seed()
		direct := capacity.Profile(mixes[m].Name, profs, cfg).At(0.7)
		for i, s := range capSizers {
			if math.Float64bits(row.CapRel[i]) != math.Float64bits(direct.RelPerf[s]) {
				t.Errorf("%s %v: CapRel %v, direct profile %v", row.Mix, s, row.CapRel[i], direct.RelPerf[s])
			}
		}
		if math.Float64bits(row.Unconstrained) != math.Float64bits(direct.Unconstrained) {
			t.Errorf("%s: Unconstrained %v, direct profile %v", row.Mix, row.Unconstrained, direct.Unconstrained)
		}
	}
}
