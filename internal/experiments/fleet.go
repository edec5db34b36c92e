package experiments

import (
	"context"
	"fmt"

	"compresso/internal/fleet"
	"compresso/internal/stats"
)

// fleetBackends is the backend set the fleet experiments span: the
// four headline architectures plus the uncompressed baseline.
var fleetBackends = []string{"compresso", "lcp", "cram", "cxl", "uncompressed"}

// fleetShape returns the fleet dimensions for the fidelity level. The
// quick shape stays at the acceptance floor (16 nodes); the full shape
// grows the fleet and the per-node epochs.
func fleetShape(opt Options) (nodes, epochs int, opsPerEpoch uint64) {
	if opt.Quick {
		return 16, 3, 500
	}
	return 24, 4, 2000
}

// FleetRow is one fleet configuration's rollup: a backend (or policy)
// swept over a whole multi-node fleet.
type FleetRow struct {
	Backend string
	Policy  string
	Nodes   int

	AggRatio     float64
	HotHitRate   float64
	ChurnPerKOp  float64
	MoveBytes    int64
	BalloonPages int64

	MemoryDollars  float64
	BalloonDollars float64
	EnergyDollars  float64
}

// rowFromResult condenses a fleet result into its artifact row.
func rowFromResult(backend, policy string, res fleet.Result) FleetRow {
	return FleetRow{
		Backend:        backend,
		Policy:         policy,
		Nodes:          len(res.Nodes),
		AggRatio:       res.AggRatio,
		HotHitRate:     res.HotHitRate,
		ChurnPerKOp:    res.ChurnPerKOp,
		MoveBytes:      res.MoveBytes,
		BalloonPages:   res.BalloonPages,
		MemoryDollars:  res.MemoryDollars,
		BalloonDollars: res.BalloonDollars,
		EnergyDollars:  res.EnergyDollars,
	}
}

// runFleetCell executes one fleet under the experiment options. The
// fleet's internal node fan-out runs serially (Jobs 1): the experiment
// grid already parallelizes across cells, and nesting workers would
// oversubscribe without changing results (fleet runs are byte-identical
// at any Jobs value).
func runFleetCell(opt Options, backends []string, policyName string) (fleet.Result, error) {
	nodes, epochs, ops := fleetShape(opt)
	pol, err := fleet.PolicyByName(policyName)
	if err != nil {
		return fleet.Result{}, err
	}
	specs, err := fleet.Mix(nodes, backends, opt.seed())
	if err != nil {
		return fleet.Result{}, err
	}
	return fleet.Run(fleet.Config{
		Nodes:          specs,
		Policy:         pol,
		Epochs:         epochs,
		OpsPerEpoch:    ops,
		FootprintScale: opt.scale(),
		Jobs:           1,
	})
}

var fleetSweepCache memo[[2]uint64, []FleetRow]

// FleetSweepData runs one homogeneous fleet per backend under the
// default hysteresis policy: the per-backend fleet comparison
// (aggregate ratio, tier churn, move traffic, TCO rollup).
func FleetSweepData(opt Options) []FleetRow {
	rows, err := fleetSweepCache.get(opt.Ctx, opt.sweepKey(), func() ([]FleetRow, error) {
		return gridErr(opt, "fleet-sweep", len(fleetBackends), func(ctx context.Context, i int) (FleetRow, error) {
			res, err := runFleetCell(opt, []string{fleetBackends[i]}, "hysteresis")
			if err != nil {
				return FleetRow{}, err
			}
			return rowFromResult(fleetBackends[i], "hysteresis", res), nil
		})
	})
	if err != nil {
		panic(err)
	}
	return rows
}

var fleetPolicyCache memo[[2]uint64, []FleetRow]

// FleetPolicyData runs one heterogeneous fleet (nodes cycling through
// every headline backend) per named tier policy: the policy ablation.
func FleetPolicyData(opt Options) []FleetRow {
	policies := fleet.PolicyNames()
	rows, err := fleetPolicyCache.get(opt.Ctx, opt.sweepKey(), func() ([]FleetRow, error) {
		return gridErr(opt, "fleet-policy", len(policies), func(ctx context.Context, i int) (FleetRow, error) {
			res, err := runFleetCell(opt, fleetBackends, policies[i])
			if err != nil {
				return FleetRow{}, err
			}
			return rowFromResult("mixed", policies[i], res), nil
		})
	})
	if err != nil {
		panic(err)
	}
	return rows
}

func renderFleetTable(opt Options, label string, rows []FleetRow) {
	tbl := stats.NewTable(label, "nodes", "ratio", "hot-hit", "churn/kop",
		"move MB", "balloon pgs", "mem $/mo", "balloon $/mo")
	for _, r := range rows {
		head := r.Backend
		if label == "policy" {
			head = r.Policy
		}
		tbl.AddRow(head, r.Nodes, r.AggRatio, r.HotHitRate, r.ChurnPerKOp,
			float64(r.MoveBytes)/(1<<20), r.BalloonPages,
			r.MemoryDollars, r.BalloonDollars)
	}
	tbl.Render(opt.Out)
}

func runFleetSweep(opt Options) (any, error) {
	rows := FleetSweepData(opt)
	header(opt.Out, "Fleet sweep: one homogeneous multi-node fleet per backend (hysteresis policy)")
	renderFleetTable(opt, "backend", rows)
	fmt.Fprintf(opt.Out, "\nballoon $/mo is the DRAM spend the backend's compression releases back to the fleet\n")
	return rows, nil
}

func runFleetPolicy(opt Options) (any, error) {
	rows := FleetPolicyData(opt)
	header(opt.Out, "Fleet policy ablation: mixed-backend fleet per tier policy")
	renderFleetTable(opt, "policy", rows)
	fmt.Fprintf(opt.Out, "\nstatic never moves pages after seeding; aggressive trades churn (and move traffic) for hot-tier coverage\n")
	return rows, nil
}

func init() {
	register("fleet-sweep", "multi-node fleet rollup per backend: ratio, tier churn, move traffic, TCO", runFleetSweep)
	register("fleet-policy", "tier promotion/demotion policy ablation over a mixed-backend fleet", runFleetPolicy)
}
