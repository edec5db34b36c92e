package sim

import (
	"fmt"

	"compresso/internal/workload"
)

// Mix is one Tab. IV multi-core workload.
type Mix struct {
	Name    string
	Benches [4]string
}

// Mixes returns the paper's Tab. IV 4-core mixes, built for equal
// representation of high/low groups by single-core speedup, metadata
// hit rate and memory sensitivity; Mix10 is the worst case for
// compression overhead (three high-metadata-miss graph workloads).
func Mixes() []Mix {
	return []Mix{
		{"mix1", [4]string{"mcf", "GemsFDTD", "libquantum", "soplex"}},
		{"mix2", [4]string{"milc", "astar", "gamess", "tonto"}},
		{"mix3", [4]string{"Forestfire", "lbm", "leslie3d", "hmmer"}},
		{"mix4", [4]string{"sjeng", "omnetpp", "gcc", "namd"}},
		{"mix5", [4]string{"xalancbmk", "cactusADM", "calculix", "sphinx3"}},
		{"mix6", [4]string{"perlbench", "bzip2", "gromacs", "gobmk"}},
		{"mix7", [4]string{"bwaves", "povray", "h264ref", "Pagerank"}},
		{"mix8", [4]string{"mcf", "bwaves", "Graph500", "perlbench"}},
		{"mix9", [4]string{"Forestfire", "povray", "gamess", "hmmer"}},
		{"mix10", [4]string{"Forestfire", "Pagerank", "Graph500", "cactusADM"}},
	}
}

// Profiles resolves the mix's benchmark profiles. Tab. IV is a
// literal table of suite benchmarks (TestMixesResolve), so an unknown
// name panics.
func (m Mix) Profiles() []workload.Profile {
	out := make([]workload.Profile, len(m.Benches))
	for i, name := range m.Benches {
		p, err := workload.ByName(name)
		if err != nil {
			panic(fmt.Sprintf("sim: mix %s: %v", m.Name, err))
		}
		out[i] = p
	}
	return out
}
