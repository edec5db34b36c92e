package fleet

import (
	"fmt"

	"compresso/internal/memctl"
	"compresso/internal/rng"
	"compresso/internal/workload"
)

// NodeSpec names one node of a fleet: which benchmark personality it
// serves, which registered memory-controller backend it runs, and how
// much load it carries relative to the fleet median.
type NodeSpec struct {
	// ID is the node's index in the fleet (stable across runs).
	ID int

	// Bench is the workload profile name (workload.ByName).
	Bench string

	// Backend is the registered memctl backend name.
	Backend string

	// Weight multiplies the node's per-epoch operation count: the
	// fleet-mix generator assigns popular services heavier nodes.
	Weight float64

	// Seed drives every stochastic choice the node makes.
	Seed uint64
}

// Backends is the backend set the fleet runs span (the -fleet mode and
// the fleet experiments): the four headline architectures plus the
// uncompressed baseline.
var Backends = []string{"compresso", "lcp", "cram", "cxl", "uncompressed"}

// nodeSeedStride decorrelates per-node seeds (a prime, like the
// per-core stride of workload.CoreSeed).
const nodeSeedStride = 9973

// mixTheta is the service-popularity skew: at ~1.1 the head service
// lands on several times more nodes than the tail, the "millions of
// users concentrate on few services" shape datacenter traces report.
const mixTheta = 1.1

// Mix generates a deterministic fleet of n nodes over the workload
// catalog: service assignment is zipfian over the benchmark list
// (popular services recur on many nodes and carry heavier per-node
// load), and backends cycle through the given list so every backend is
// exercised. The same (n, backends, seed) triple always yields the
// same specs.
func Mix(n int, backends []string, seed uint64) ([]NodeSpec, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: mix of %d nodes", n)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("fleet: mix with no backends")
	}
	for _, b := range backends {
		if _, ok := memctl.LookupBackend(b); !ok {
			return nil, fmt.Errorf("fleet: unknown backend %q (registered: %v)", b, memctl.BackendNames())
		}
	}
	services := workload.Names()
	r := rng.New(seed ^ 0xF1EE7)
	z := rng.NewZipf(r, len(services), mixTheta)
	specs := make([]NodeSpec, n)
	for i := range specs {
		svc := z.Next()
		specs[i] = NodeSpec{
			ID:      i,
			Bench:   services[svc],
			Backend: backends[i%len(backends)],
			// Popular services run hot: the head service's nodes carry
			// 5x the tail's operation rate.
			Weight: 1 + 4/float64(1+svc),
			Seed:   seed + uint64(i)*nodeSeedStride,
		}
	}
	return specs, nil
}
