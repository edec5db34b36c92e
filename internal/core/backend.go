package core

import (
	"fmt"

	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

// Registered backend (DESIGN.md §12). Mod is func(*core.Config), routed
// from sim.Config.CompressoMod; compresso is the only backend that
// takes one.
func init() {
	memctl.RegisterBackend(memctl.Backend{
		Name:         "compresso",
		Desc:         "Compresso: LinePack lines, 8 page sizes, repacking, metadata cache (the paper)",
		MachineBytes: memctl.CompressedMachineBytes,
		New: func(p memctl.BuildParams) memctl.Controller {
			c := DefaultConfig(p.OSPAPages, p.MachineBytes)
			c.Overlap = p.Overlap // before Mod: ablation hooks may override
			if p.Mod != nil {
				mod, ok := p.Mod.(func(*Config))
				if !ok {
					panic(fmt.Sprintf("core: backend mod has type %T, want func(*core.Config)", p.Mod))
				}
				mod(&c)
			}
			metadata.ScaleCacheForFootprint(&c.MetadataCache, p.FootprintScale)
			c.Faults = p.Injector
			return New(c, p.Mem, p.Source)
		},
	})
}
