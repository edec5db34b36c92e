package main

import (
	"fmt"
	"testing"

	"compresso/internal/memctl"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// TestComposedMatchesSim is the seam oracle: for every registered
// backend, the composed run rebuilt from the layers' public calls
// reproduces sim.RunSingle and a 2-core sim.RunMix byte for byte, and
// replaying its cache and DRAM streams into fresh models reproduces the
// run's counts. Scale 16 exercises RunMix's halved metadata-cache scale
// and the scaled L3; scale 2 the unhalved path. The benchmarks have the
// smallest footprints, except write-heavy GemsFDTD for the overflow and
// repack paths, because mxt prices every installed page with LZ.
func TestComposedMatchesSim(t *testing.T) {
	cases := []struct {
		scale   int
		benches []string
	}{
		{16, []string{"GemsFDTD", "sjeng"}},
		{2, []string{"sjeng", "gamess"}},
	}
	for _, tc := range cases {
		var profs []workload.Profile
		for _, b := range tc.benches {
			p, err := workload.ByName(b)
			if err != nil {
				t.Fatal(err)
			}
			profs = append(profs, p)
		}
		for _, backend := range memctl.BackendNames() {
			for _, mixName := range []string{"", "seam"} {
				ps := profs
				if mixName == "" {
					ps = profs[:1]
				}
				name := fmt.Sprintf("%s/scale%d/cores%d", backend, tc.scale, len(ps))
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := sim.DefaultConfig(sim.System(backend))
					cfg.Ops, cfg.Seed, cfg.FootprintScale = 3000, 7, tc.scale
					cfg.Assets = sim.PrepareAssets(ps, cfg, sizeCodec, 1)
					w := spec{mix: mixName}
					want := check([]cellResult{w.simCell(ps, cfg)})[0]

					g := newLedger(false)
					res, seam := runComposed(mixName, cfg, prepareComposed(ps, cfg, g), g)
					got := check([]cellResult{res})[0]
					if want.Err != "" || got.Err != "" {
						t.Fatalf("errors: sim %q, composed %q", want.Err, got.Err)
					}
					if got.Digest != want.Digest {
						t.Errorf("composed digest %s, sim %s", got.Digest, want.Digest)
					}
					if _, ok := seam.replayCache(); !ok {
						t.Error("cache replay counts differ from the run")
					}
					if _, ok := seam.replayDRAM(); !ok {
						t.Error("DRAM replay row counts differ from the run")
					}
					if want := int(cfg.Ops) * len(ps); g.step.calls != want {
						t.Errorf("timed %d cpu steps, want %d", g.step.calls, want)
					}
				})
			}
		}
	}
}
