package dmc

import (
	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

// Registered backends (DESIGN.md §12).
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
	register("dmc", "dual memory compression: hot BDI lines, cold 1 KB LZ regions (Kim et al.)", DefaultConfig)
	register("mxt", "IBM-MXT-style uniform coarse-granularity compression (all-cold DMC)", MXTConfig)
}
