package sim

// Config liveness gate (DESIGN.md §12): every exported field of every
// simulation config must change what a small fixed run observes. A
// field nothing reads misleads whoever sets it, so the gate perturbs
// each field to another valid value, reruns the program and requires
// the outcome to move.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/cram"
	"compresso/internal/cxl"
	"compresso/internal/dmc"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/workload"
)

// gatedBackend is how the gate builds one registered backend from its
// config: the config the registry builds and the constructor that
// takes it. A zero gatedBackend is a backend with no config.
type gatedBackend struct {
	def   func(pages int, machineBytes int64) any
	build func(cfg any, mem *dram.Memory, src memctl.LineSource) memctl.Controller
}

func gated[C any, X memctl.Controller](def func(int, int64) C, build func(C, *dram.Memory, memctl.LineSource) X) gatedBackend {
	return gatedBackend{
		def: func(pages int, machineBytes int64) any { return def(pages, machineBytes) },
		build: func(cfg any, mem *dram.Memory, src memctl.LineSource) memctl.Controller {
			return build(cfg.(C), mem, src)
		},
	}
}

// gatedBackends has one entry per registered backend; a new backend
// fails the gate until it adds its own.
var gatedBackends = map[string]gatedBackend{
	"uncompressed": {},
	"compresso":    gated(core.DefaultConfig, core.New),
	"lcp":          gated(lcp.DefaultConfig, lcp.New),
	"lcp-align":    gated(lcp.AlignConfig, lcp.New),
	"dmc":          gated(dmc.DefaultConfig, dmc.New),
	"mxt":          gated(dmc.MXTConfig, dmc.New),
	"cram":         gated(func(pages int, _ int64) cram.Config { return cram.DefaultConfig(pages) }, cram.New),
	"cxl":          gated(func(pages int, _ int64) cxl.Config { return cxl.DefaultConfig(pages) }, cxl.New),
}

// unreachedField is a field the small programs cannot reach: why, and
// the mode that reads it, a func(*T) over the struct T that declares
// the field. The gate turns the mode on before both runs, so the field
// must move the outcome once its mode is on.
type unreachedField struct {
	why  string
	mode any
}

// tightBudget leaves machine memory for the conformance footprint's
// metadata and two pages of data, so installing it runs out of chunks.
const tightBudget = conformancePages*metadata.EntrySize + 2*memctl.PageSize

// smallMetadataCache shrinks a metadata cache to two 2-way sets, half
// the conformance footprint's eight pages.
func smallMetadataCache(c *metadata.CacheConfig) { c.SizeBytes, c.Ways = 4*metadata.EntrySize, 2 }

// oneLineRows gives every line its own DRAM row, so lines one bank
// stride apart conflict.
func oneLineRows(c *dram.Config) { c.RowBytes = 64 }

// frequentScans makes dmc reclassify every page on its own every 256
// accesses, well inside the conformance program, against a threshold
// above some pages' share of them.
func frequentScans(c *dmc.Config) { c.ReclassifyEvery, c.RegionPages, c.HotThreshold = 256, 1, 40 }

// unreachedFields is keyed by the declaring type's field, so one entry
// covers every config that nests the type.
var unreachedFields = map[string]unreachedField{
	"core.Config.MachineBytes":       {"the default budget's slack never runs out", func(c *core.Config) { c.MachineBytes = tightBudget }},
	"core.Config.OnMemoryPressure":   {"called only when chunk allocation fails", func(c *core.Config) { c.MachineBytes = tightBudget }},
	"core.Config.DynamicRepacking":   {"repacking runs on a metadata-cache eviction", func(c *core.Config) { smallMetadataCache(&c.MetadataCache) }},
	"lcp.Config.OnMemoryPressure":    {"called only when chunk allocation fails", func(c *lcp.Config) { c.MachineBytes = tightBudget }},
	"dmc.Config.OnMemoryPressure":    {"called only when chunk allocation fails", func(c *dmc.Config) { c.MachineBytes = tightBudget }},
	"dmc.Config.RegionPages":         {"read by the temperature scan, every 4,096 accesses by default", frequentScans},
	"dmc.Config.ReclassifyEvery":     {"the default 4,096-access scan interval outlasts the program", frequentScans},
	"dmc.Config.HotThreshold":        {"read by the temperature scan, every 4,096 accesses by default", frequentScans},
	"metadata.CacheConfig.SizeBytes": {"eight pages never evict a default-sized cache", smallMetadataCache},
	"metadata.CacheConfig.Ways":      {"eight pages never evict a default-sized cache", smallMetadataCache},
	"dram.Config.Banks":              {"cxl's far-tier accesses fit two 8 KB rows and never conflict", oneLineRows},
	"dram.Config.RP":                 {"cxl's far-tier accesses fit two 8 KB rows and never conflict", oneLineRows},
	"faults.Config.Seed": {"drives the injector's stream, drawn only at sites with a non-zero rate",
		func(c *faults.Config) { c.Rate[faults.MDCacheMiss] = 0.1 }},
	"sim.Config.SampleWindows": {"bounds the sampler's window ring, kept only when sampling", func(c *Config) { c.SampleEvery = 64 }},
	"sim.Config.OnSample":      {"receives each sample, taken only when sampling", func(c *Config) { c.SampleEvery = 64 }},
	"sim.Config.TopPages":      {"bounds the hot-page profile, kept only by the attribution ledger", func(c *Config) { c.Attribution = true }},
}

// gateHookCalls counts calls into the gate's func-valued perturbations
// during one run, so a hook whose calls leave the results alone (an
// observer) still shows it was read.
var gateHookCalls int

// perturb returns another valid value for a field holding v: the
// opposite bool; half a number, 2 for an integer 1, 100 for an integer
// 0 (an interval every-N fields can afford) and 0.5 for a float 0;
// another codec, bin set, system or
// page-size list; metadata-miss faults; a hook that counts its calls;
// a canceled context; or assets prepared for the sim program.
func perturb(t *testing.T, v reflect.Value) reflect.Value {
	t.Helper()
	out := reflect.New(v.Type()).Elem()
	switch v.Type() {
	case reflect.TypeOf((*compress.Codec)(nil)).Elem():
		if _, ok := v.Interface().(compress.BPC); ok {
			out.Set(reflect.ValueOf(compress.BDI{}))
		} else {
			out.Set(reflect.ValueOf(compress.BPC{}))
		}
		return out
	case reflect.TypeOf((*context.Context)(nil)).Elem():
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out.Set(reflect.ValueOf(ctx))
		return out
	}
	switch x := v.Interface().(type) {
	case compress.Bins:
		if x.Name() == compress.CompressoBins.Name() {
			return reflect.ValueOf(compress.LegacyBins)
		}
		return reflect.ValueOf(compress.CompressoBins)
	case System:
		if x == Compresso {
			return reflect.ValueOf(LCP)
		}
		return reflect.ValueOf(Compresso)
	case []int:
		return reflect.ValueOf([]int{1, 2, 4, 8})
	case [faults.NSites]float64:
		x[faults.MDCacheMiss] = 0.1
		return reflect.ValueOf(x)
	case *faults.Injector:
		var c faults.Config
		c.Rate[faults.MDCacheMiss] = 0.1
		return reflect.ValueOf(faults.New(c))
	case *MixAssets:
		return reflect.ValueOf(PrepareAssets([]workload.Profile{simGateProfile()}, simGateConfig(), compress.BPC{}, 1))
	}
	switch v.Kind() {
	case reflect.Bool:
		out.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		out.SetInt(perturbCount(v.Int()))
	case reflect.Uint64:
		out.SetUint(uint64(perturbCount(int64(v.Uint()))))
	case reflect.Float64:
		if f := v.Float(); f != 0 {
			out.SetFloat(f / 2)
		} else {
			out.SetFloat(0.5)
		}
	case reflect.String:
		out.SetString(v.String() + "-x")
	case reflect.Func:
		out.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			gateHookCalls++
			res := make([]reflect.Value, v.Type().NumOut())
			for i := range res {
				res[i] = reflect.Zero(v.Type().Out(i))
			}
			return res
		}))
	default:
		t.Fatalf("no perturbation for a field of type %s", v.Type())
	}
	return out
}

func perturbCount(n int64) int64 {
	switch n {
	case 0:
		return 100
	case 1:
		return 2
	}
	return n / 2
}

// configLeaf is one settable field of a gated config: its dotted path
// from the root config, the field as its declaring type names it, and
// its index path for reflect.Value.FieldByIndex.
type configLeaf struct {
	path, owner string
	index       []int
}

// configLeaves walks every exported field of t depth first, recursing
// into nested structs that have exported fields of their own.
func configLeaves(t reflect.Type, path string, index []int) []configLeaf {
	var out []configLeaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct && hasExportedField(f.Type) {
			out = append(out, configLeaves(f.Type, path+"."+f.Name, idx)...)
			continue
		}
		out = append(out, configLeaf{path: path + "." + f.Name, owner: t.String() + "." + f.Name, index: idx})
	}
	return out
}

func hasExportedField(t reflect.Type) bool {
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).IsExported() {
			return true
		}
	}
	return false
}

// probe reports whether perturbing one leaf moves the outcome of its
// program from any of its root's bases, with mode (nil for none)
// applied to the leaf's declaring struct first.
type probe struct {
	path  string
	moved func(mode any) bool
}

// addProbes adds a probe for every leaf of root, keyed by owner: run
// executes the fixed program from bases[i] on a config of the root
// type and returns its observable outcome.
func addProbes(t *testing.T, probes map[string][]probe, root reflect.Type, bases []reflect.Value, run func(i int, cfg reflect.Value) any) {
	for _, leaf := range configLeaves(root, root.String(), nil) {
		leaf := leaf
		probes[leaf.owner] = append(probes[leaf.owner], probe{path: leaf.path, moved: func(mode any) bool {
			for i, base := range bases {
				cfg := reflect.New(root).Elem()
				cfg.Set(base)
				if mode != nil {
					owner := cfg.FieldByIndex(leaf.index[:len(leaf.index)-1])
					reflect.ValueOf(mode).Call([]reflect.Value{owner.Addr()})
				}
				before := run(i, cfg)
				f := cfg.FieldByIndex(leaf.index)
				f.Set(perturb(t, f))
				if !reflect.DeepEqual(before, run(i, cfg)) {
					return true
				}
			}
			return false
		}})
	}
}

// backendOutcome is the conformance program's outcome, or the panic
// that ended it and the bytes installed by then, plus the controller's
// name and the calls into perturbed hooks.
type backendOutcome struct {
	Outcome   conformanceOutcome
	Panic     string
	Installed int64
	Name      string
	Hooks     int
}

func runGatedBackend(t *testing.T, g gatedBackend, cfg any) (out backendOutcome) {
	t.Helper()
	gateHookCalls = 0
	var ctl memctl.Controller
	defer func() {
		if r := recover(); r != nil {
			out.Panic = fmt.Sprint(r)
			if ctl != nil {
				out.Installed = ctl.InstalledBytes()
			}
		}
		if ctl != nil {
			out.Name = ctl.Name()
		}
		out.Hooks = gateHookCalls
	}()
	im := newOracle()
	mem := dram.New(dram.DDR4_2666())
	ctl = g.build(cfg, mem, im)
	out.Outcome = runConformance(t, ctl, im, mem)
	return out
}

// simGateProfile and simGateConfig are the sim program: a small
// single-core gcc run on compresso, the system every sim.Config field
// applies to, long enough for L3 hits.
func simGateProfile() workload.Profile {
	p, _ := workload.ByName("gcc")
	return p
}

func simGateConfig() Config {
	cfg := DefaultConfig(Compresso)
	cfg.Ops = 20_000
	cfg.FootprintScale = 4
	return cfg
}

// simOutcome is the sim program's Result, or the panic that ended it,
// plus the calls into perturbed hooks and whether the run replayed its
// assets' recorded op stream.
type simOutcome struct {
	Result     Result
	Panic      string
	Hooks      int
	FromAssets bool
}

func runSimGate(cfg Config) (out simOutcome) {
	gateHookCalls = 0
	defer func() {
		if r := recover(); r != nil {
			out.Panic = fmt.Sprint(r)
		}
		out.Hooks = gateHookCalls
	}()
	p := newPass([]workload.Profile{simGateProfile()}, []Config{cfg})
	_, generated := p.streams[0].(*workload.Trace)
	out.FromAssets = !generated
	out.Result = p.runSolos()[0]
	return out
}

// TestEveryConfigFieldIsRead is the config liveness gate. Every
// exported field of every backend config (nested metadata.CacheConfig
// and cxl.Far included) must move the outcome of the conformance
// program, and every field of sim.Config (nested cpu.Config,
// dram.Config and faults.Config included) that of a small RunSingle;
// a field declared by a type several configs nest must move the
// outcome under each config that nests it, since setting it on a
// config that ignores it misleads as much as an unread field. A field
// the programs do not reach sits on unreachedFields, with its reason
// and a mode in which it must move the outcome under every config
// that does not reach it.
func TestEveryConfigFieldIsRead(t *testing.T) {
	probes := map[string][]probe{}
	builders := map[reflect.Type][]gatedBackend{}
	bases := map[reflect.Type][]reflect.Value{}
	for _, b := range memctl.Backends() {
		g, ok := gatedBackends[b.Name]
		if !ok {
			t.Errorf("backend %q has no gatedBackends entry", b.Name)
			continue
		}
		if g.def == nil {
			continue
		}
		// The gate's config must be the one the registry builds.
		cfg := g.def(conformancePages, b.MachineBytes(conformancePages))
		ctl, im, mem := buildBackend(t, b)
		want := backendOutcome{Outcome: runConformance(t, ctl, im, mem), Name: b.Name}
		if got := runGatedBackend(t, g, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("backend %q: gatedBackends builds another controller than the registry:\n%+v\n%+v", b.Name, got, want)
		}
		typ := reflect.TypeOf(cfg)
		builders[typ] = append(builders[typ], g)
		bases[typ] = append(bases[typ], reflect.ValueOf(cfg))
	}
	for name := range gatedBackends {
		if _, ok := memctl.LookupBackend(name); !ok {
			t.Errorf("gatedBackends entry %q names no registered backend", name)
		}
	}
	for typ, gs := range builders {
		addProbes(t, probes, typ, bases[typ], func(i int, cfg reflect.Value) any {
			return runGatedBackend(t, gs[i], cfg.Interface())
		})
	}
	addProbes(t, probes, reflect.TypeOf(Config{}), []reflect.Value{reflect.ValueOf(simGateConfig())},
		func(_ int, cfg reflect.Value) any { return runSimGate(cfg.Interface().(Config)) })

	owners := make([]string, 0, len(probes))
	for owner := range probes {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		var unread []probe
		for _, p := range probes[owner] {
			if !p.moved(nil) {
				unread = append(unread, p)
			}
		}
		var paths []string
		for _, p := range unread {
			paths = append(paths, p.path)
		}
		entry, allowed := unreachedFields[owner]
		switch {
		case len(unread) == 0:
			if allowed {
				t.Errorf("%s is on unreachedFields (%s), but the programs already read it", owner, entry.why)
			}
		case !allowed:
			t.Errorf("%s is never read at %s: perturbing it there changes nothing the programs observe", owner, strings.Join(paths, ", "))
		case entry.why == "":
			t.Errorf("%s is on unreachedFields with no reason", owner)
		default:
			for _, p := range unread {
				if !p.moved(entry.mode) {
					t.Errorf("%s is not read at %s in its mode either (%s)", owner, p.path, entry.why)
				}
			}
		}
	}
	for owner := range unreachedFields {
		if _, ok := probes[owner]; !ok {
			t.Errorf("unreachedFields entry %s names no gated field", owner)
		}
	}
}
