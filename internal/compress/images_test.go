package compress_test

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/workload"
)

// TestBPCSizeMatchesReferenceOnImages holds the fused BPC kernel to
// the pre-fusion size path on every line of every benchmark profile's
// memory image, at a 1/16 footprint, for both best-of settings: the
// data the simulators actually size.
func TestBPCSizeMatchesReferenceOnImages(t *testing.T) {
	for _, prof := range workload.All() {
		im := workload.NewImage(workload.Scale(prof, 16), 42)
		for addr := uint64(0); addr < im.Lines(); addr++ {
			line := im.Line(addr)
			for _, b := range []compress.BPC{{}, {DisableBestOf: true}} {
				if err := compress.CheckBPCAgainstRef(b, line); err != nil {
					t.Fatalf("%s line %d: %v", prof.Name, addr, err)
				}
			}
		}
	}
}
