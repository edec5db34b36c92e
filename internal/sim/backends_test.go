package sim

// Backend conformance suite (DESIGN.md §12): every backend in the
// memctl registry — present and future — is driven through the same
// install/read/write/reset program against a LineSource oracle, and
// Auditable backends additionally prove their audit repair path
// restores consistency after the oracle is mutated behind their back.

import (
	"bytes"
	"reflect"
	"testing"

	"compresso/internal/audit"
	"compresso/internal/datagen"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
	"compresso/internal/rng"
	"compresso/internal/workload"
)

// oracleImage is the authoritative OSPA line store. It doubles as the
// differential model: whatever the controller claims to hold must
// round-trip against these bytes under a Full audit.
type oracleImage struct {
	lines map[uint64][]byte
}

func newOracle() *oracleImage { return &oracleImage{lines: make(map[uint64][]byte)} }

func (im *oracleImage) ReadLine(addr uint64, buf []byte) {
	if l, ok := im.lines[addr]; ok {
		copy(buf, l)
		return
	}
	for i := range buf {
		buf[i] = 0
	}
}

func (im *oracleImage) set(addr uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	im.lines[addr] = cp
}

// buildBackend constructs the conformance program's world for one
// registered backend.
func buildBackend(t *testing.T, b memctl.Backend) (memctl.Controller, *oracleImage, *dram.Memory) {
	t.Helper()
	im := newOracle()
	mem := dram.New(dram.DDR4_2666())
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      conformancePages,
		MachineBytes:   b.MachineBytes(conformancePages),
		FootprintScale: 1,
		Mem:            mem,
		Source:         im,
		Injector:       faults.New(faults.Config{}),
	})
	if ctl == nil {
		t.Fatalf("backend %q: New returned nil", b.Name)
	}
	return ctl, im, mem
}

func installOracle(ctl memctl.Controller, im *oracleImage, page uint64, lines [][]byte) {
	for i, l := range lines {
		im.set(page*metadata.LinesPerPage+uint64(i), l)
	}
	ctl.InstallPage(page, lines)
}

// conformancePages is the footprint of the conformance program and
// conformanceSeed the seed of its data and op stream.
const (
	conformancePages = 8
	conformanceSeed  = 7
)

// conformanceInstall installs every page of the conformance program's
// footprint with a deterministic mix of patterns drawn from r.
func conformanceInstall(ctl memctl.Controller, im *oracleImage, r *rng.Rand) {
	for p := uint64(0); p < conformancePages; p++ {
		lines := make([][]byte, metadata.LinesPerPage)
		for i := range lines {
			lines[i] = datagen.Line(r, datagen.Kind(int(p)%int(datagen.NKinds)))
		}
		installOracle(ctl, im, p, lines)
	}
}

// conformanceDemand is the conformance program's demand phase: 2,000
// interleaved reads and writes over the whole footprint drawn from r,
// the oracle kept in sync the way the workload layer does. It fails t
// if an access completes before it was issued and returns the reads
// and writes it drove and the sum of their latencies.
func conformanceDemand(t *testing.T, ctl memctl.Controller, im *oracleImage, r *rng.Rand) (reads, writes, latency uint64) {
	t.Helper()
	const ops = 2000
	now := uint64(0)
	totalLines := uint64(conformancePages) * metadata.LinesPerPage
	for i := 0; i < ops; i++ {
		addr := r.Uint64() % totalLines
		var res memctl.Result
		if r.Uint64()%3 == 0 {
			data := datagen.Line(r, datagen.Kind(int(addr)%int(datagen.NKinds)))
			im.set(addr, data)
			res = ctl.WriteLine(now, addr, data)
			writes++
		} else {
			res = ctl.ReadLine(now, addr)
			reads++
		}
		if res.Done < now {
			t.Fatalf("op %d: Done %d precedes issue cycle %d", i, res.Done, now)
		}
		latency += res.Done - now
		now += 4
	}
	return reads, writes, latency
}

// conformanceOutcome is everything the conformance program's run
// leaves observable: the controller's accounting, its DRAM's, the
// bytes it stores, its backend metrics and the latency it charged.
type conformanceOutcome struct {
	Stats           memctl.Stats
	DRAM            dram.Stats
	CompressedBytes int64
	Metrics         obs.Snapshot
	Latency         uint64
}

// runConformance runs the whole conformance program on a fresh
// controller and returns its outcome.
func runConformance(t *testing.T, ctl memctl.Controller, im *oracleImage, mem *dram.Memory) conformanceOutcome {
	t.Helper()
	r := rng.New(conformanceSeed)
	conformanceInstall(ctl, im, r)
	_, _, latency := conformanceDemand(t, ctl, im, r)
	return conformanceOutcome{
		Stats:           ctl.Stats(),
		DRAM:            mem.Stats(),
		CompressedBytes: ctl.CompressedBytes(),
		Metrics:         backendMetrics(ctl),
		Latency:         latency,
	}
}

// TestBackendConformance is the registry-wide contract check: any
// backend registered via memctl.RegisterBackend is picked up here with
// no test changes.
func TestBackendConformance(t *testing.T) {
	const pages = conformancePages
	for _, b := range memctl.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Desc == "" {
				t.Errorf("backend %q has no description", b.Name)
			}
			if mb := b.MachineBytes(pages); mb < int64(pages)*metadata.PageSize {
				t.Fatalf("MachineBytes(%d) = %d, smaller than the raw footprint", pages, mb)
			}
			ctl, im, _ := buildBackend(t, b)
			if ctl.Name() != b.Name {
				t.Fatalf("controller Name() = %q, registered as %q", ctl.Name(), b.Name)
			}

			// Every backend must support the cycle-accounting ledger
			// (DESIGN.md §14); it rides along the whole conformance
			// program and its conservation invariant is checked below.
			as, ok := ctl.(interface{ SetAttribution(*obs.Attribution) })
			if !ok {
				t.Fatalf("backend %q does not implement SetAttribution", b.Name)
			}
			attr := obs.NewAttribution(8)
			as.SetAttribution(attr)

			r := rng.New(conformanceSeed)
			conformanceInstall(ctl, im, r)
			if got, want := ctl.InstalledBytes(), int64(pages)*metadata.PageSize; got != want {
				t.Fatalf("InstalledBytes = %d after installing %d pages, want %d", got, pages, want)
			}
			if ratio := memctl.CompressionRatio(ctl); ratio < 1 || ratio > 64 {
				t.Fatalf("CompressionRatio = %v, outside [1, 64]", ratio)
			}

			reads, writes, _ := conformanceDemand(t, ctl, im, r)
			st := ctl.Stats()
			if st.DemandReads != reads || st.DemandWrites != writes {
				t.Fatalf("demand accounting: got %d/%d reads/writes, drove %d/%d",
					st.DemandReads, st.DemandWrites, reads, writes)
			}
			if ratio := memctl.CompressionRatio(ctl); ratio < 1 || ratio > 64 {
				t.Fatalf("CompressionRatio = %v after demand traffic, outside [1, 64]", ratio)
			}

			// Attribution conservation: every access's exposed
			// components summed exactly to its charged latency, and the
			// aggregate totals agree (snapshot taken before the audits
			// below add out-of-access repair traffic).
			snap := attr.Snapshot()
			if snap.Accesses != reads+writes {
				t.Fatalf("attribution saw %d accesses, drove %d", snap.Accesses, reads+writes)
			}
			if v := attr.Violations(); v != 0 {
				t.Fatalf("%d conservation violations; first: %s", v, snap.FirstViolation)
			}
			var exposedTotal uint64
			for _, c := range snap.Components {
				exposedTotal += c.ExposedCycles
			}
			if exposedTotal != snap.ChargedCycles {
				t.Fatalf("exposed component cycles %d != charged cycles %d", exposedTotal, snap.ChargedCycles)
			}

			// Differential check: a Full repairless audit against the
			// oracle must be clean on the untampered path.
			if a, ok := ctl.(audit.Auditable); ok {
				if rep := a.Audit(audit.Full, false); !rep.OK() {
					t.Fatalf("clean-path Full audit found violations:\n%s", rep)
				}
				auditRepairPath(t, a, im, r)
			}

			// ResetStats zeroes the accounting without touching state.
			before := ctl.CompressedBytes()
			ctl.ResetStats()
			if st := ctl.Stats(); st != (memctl.Stats{}) {
				t.Fatalf("Stats not zero after ResetStats: %+v", st)
			}
			if got := ctl.CompressedBytes(); got != before {
				t.Fatalf("ResetStats changed CompressedBytes: %d -> %d", before, got)
			}
		})
	}
}

// TestBackendsLeaveWritebackDataAlone: a writeback's data may be a
// view of the simulator's live image (memctl.LineViewer), so no backend
// may write through it, during WriteLine or after. Each backend takes
// a write-heavy demand program whose every writeback buffer is kept
// and compared with its value when handed over, after its own call and
// at the end.
func TestBackendsLeaveWritebackDataAlone(t *testing.T) {
	for _, b := range memctl.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			ctl, im, _ := buildBackend(t, b)
			r := rng.New(conformanceSeed)
			conformanceInstall(ctl, im, r)
			totalLines := uint64(conformancePages) * metadata.LinesPerPage
			var handed, values [][]byte
			for i := range 4000 {
				addr := r.Uint64() % totalLines
				now := uint64(i) * 4
				if r.Uint64()%4 == 0 {
					ctl.ReadLine(now, addr)
					continue
				}
				data := datagen.Line(r, datagen.Kind(r.Intn(int(datagen.NKinds))))
				im.set(addr, data)
				handed, values = append(handed, data), append(values, bytes.Clone(data))
				ctl.WriteLine(now, addr, data)
				if !bytes.Equal(data, values[len(values)-1]) {
					t.Fatalf("writeback %d to line %d: WriteLine wrote through its data", len(handed)-1, addr)
				}
			}
			for i := range handed {
				if !bytes.Equal(handed[i], values[i]) {
					t.Fatalf("writeback %d's data changed after its WriteLine returned", i)
				}
			}
		})
	}
}

// auditRepairPath mutates the oracle behind the controller's back and
// checks that a repairing Full audit restores a state a subsequent
// repairless Full audit accepts.
func auditRepairPath(t *testing.T, a audit.Auditable, im *oracleImage, r *rng.Rand) {
	t.Helper()
	for addr := uint64(0); addr < 8; addr++ {
		im.set(addr, datagen.Line(r, datagen.Random))
	}
	rep := a.Audit(audit.Full, true)
	for _, v := range rep.Violations {
		if !v.Repaired {
			t.Fatalf("repairing audit left violation unrepaired: %s", v)
		}
	}
	if after := a.Audit(audit.Full, false); !after.OK() {
		t.Fatalf("Full audit still dirty after repair:\n%s", after)
	}
}

// TestBackendConformanceDeterminism re-runs the conformance program and
// requires an identical outcome — backends must not consult any
// ambient nondeterminism.
func TestBackendConformanceDeterminism(t *testing.T) {
	for _, b := range memctl.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			run := func() conformanceOutcome {
				ctl, im, mem := buildBackend(t, b)
				return runConformance(t, ctl, im, mem)
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestNewBackendsRunSingle drives the cram and cxl tiers through the
// full simulator pipeline with online audits enabled, mirroring
// TestRunSingleAllSystems for the registry-only systems.
func TestNewBackendsRunSingle(t *testing.T) {
	for _, sys := range []System{CRAM, CXL} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			prof, _ := workload.ByName("gcc")
			cfg := quickCfg(sys)
			cfg.AuditEvery = 5_000
			res := RunSingle(prof, cfg)
			if res.Cycles == 0 || res.Mem.DemandAccesses() == 0 {
				t.Fatalf("%s: empty result: %+v", sys, res)
			}
			if res.Ratio != 1 {
				t.Fatalf("%s is a bandwidth/capacity tier, ratio must stay 1, got %v", sys, res.Ratio)
			}
			if res.Audit.Violations != 0 {
				t.Fatalf("%s: online audits found %d violations", sys, res.Audit.Violations)
			}
			if res.Audit.Runs == 0 {
				t.Fatalf("%s: audits never ran despite AuditEvery", sys)
			}
			if len(res.BackendMetrics.Counters)+len(res.BackendMetrics.Gauges) == 0 {
				t.Fatalf("%s: backend registered no extra metrics", sys)
			}
		})
	}
}

// TestAllSystemsCoversRegistry pins that AllSystems tracks the backend
// registry exactly, so fig-style sweeps pick up new backends for free.
func TestAllSystemsCoversRegistry(t *testing.T) {
	names := memctl.BackendNames()
	all := AllSystems()
	if len(all) != len(names) {
		t.Fatalf("AllSystems has %d entries, registry has %d", len(all), len(names))
	}
	for i, n := range names {
		if all[i].String() != n {
			t.Fatalf("AllSystems[%d] = %q, registry says %q", i, all[i], n)
		}
	}
	for _, want := range []System{Uncompressed, LCP, LCPAlign, Compresso, DMC, MXT, CRAM, CXL} {
		if _, ok := memctl.LookupBackend(string(want)); !ok {
			t.Fatalf("expected backend %q missing from registry", want)
		}
	}
}
