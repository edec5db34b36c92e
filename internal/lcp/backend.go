package lcp

import (
	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

// Registered backends (DESIGN.md §12). Neither variant takes a config
// modifier.
func init() {
	register := func(name, desc string, base func(ospaPages int, machineBytes int64) Config) {
		memctl.RegisterBackend(memctl.Backend{
			Name:         name,
			Desc:         desc,
			MachineBytes: memctl.CompressedMachineBytes,
			New: func(p memctl.BuildParams) memctl.Controller {
				c := base(p.OSPAPages, p.MachineBytes)
				metadata.ScaleCacheForFootprint(&c.MetadataCache, p.FootprintScale)
				return New(c, p.Mem, p.Source)
			},
		})
	}
	register("lcp", "Linearly Compressed Pages baseline (Pekhimenko et al.)", DefaultConfig)
	register("lcp-align", "LCP with Compresso's alignment-friendly line sizes", AlignConfig)
}
