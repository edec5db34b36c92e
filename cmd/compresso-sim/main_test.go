package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"compresso/internal/journal"
)

// TestValidateTraceEvents pins the -trace-events flag contract. The
// pre-fix behaviour (pinned here as documentation): any value <= 0 was
// passed straight to obs.NewTracer, which silently returned a nil
// no-op tracer — `-trace-events -100` ran fine and recorded nothing.
// Now an explicitly-set non-positive value is a flag error; only
// omitting the flag disables tracing.
func TestValidateTraceEvents(t *testing.T) {
	cases := []struct {
		set     bool
		n       int
		wantErr bool
	}{
		{set: false, n: 0, wantErr: false}, // default: tracing off
		{set: true, n: 1024, wantErr: false},
		{set: true, n: 1, wantErr: false},
		{set: true, n: 0, wantErr: true},
		{set: true, n: -100, wantErr: true},
	}
	for _, c := range cases {
		err := validateTraceEvents(c.set, c.n)
		if (err != nil) != c.wantErr {
			t.Errorf("validateTraceEvents(%v, %d) = %v, wantErr %v", c.set, c.n, err, c.wantErr)
		}
	}
}

// TestFleetFlagValidation pins the -fleet flag family contract:
// -fleet-* without -fleet is a flag error (the silent-no-op trap the
// resilience flags also guard against), a non-positive fleet size and
// an unknown policy are flag errors, and the documented-good shapes
// pass.
func TestFleetFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		f       fleetFlags
		wantErr string // substring; empty = must pass
	}{
		{name: "disabled default", f: fleetFlags{}},
		{name: "enabled default", f: fleetFlags{Enabled: true, Nodes: 16, Policy: "hysteresis"}},
		{name: "enabled explicit", f: fleetFlags{Enabled: true, Nodes: 32, NodesSet: true,
			Policy: "static", PolicySet: true}},
		{name: "nodes without fleet", f: fleetFlags{Nodes: 32, NodesSet: true},
			wantErr: "-fleet-nodes only applies"},
		{name: "policy without fleet", f: fleetFlags{Policy: "static", PolicySet: true},
			wantErr: "-fleet-policy only applies"},
		{name: "zero nodes", f: fleetFlags{Enabled: true, Nodes: 0, NodesSet: true,
			Policy: "hysteresis"}, wantErr: "-fleet-nodes must be >= 1"},
		{name: "negative nodes", f: fleetFlags{Enabled: true, Nodes: -4, NodesSet: true,
			Policy: "hysteresis"}, wantErr: "-fleet-nodes must be >= 1"},
		{name: "unknown policy", f: fleetFlags{Enabled: true, Nodes: 16,
			Policy: "yolo", PolicySet: true}, wantErr: "unknown policy"},
	}
	for _, c := range cases {
		err := c.f.validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

// TestCapacityFlagValidation pins the -capacity contract: a fraction in
// (0, 1] of a -bench run, or a flag error (exit 2) instead of a silently
// ignored flag or a nonsensical budget.
func TestCapacityFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		set     bool
		frac    float64
		bench   string
		wantErr string // substring; empty = must pass
	}{
		{name: "unset", frac: 0},
		{name: "unset with bench", frac: 0, bench: "gcc"},
		{name: "bench at 70%", set: true, frac: 0.7, bench: "soplex"},
		{name: "full footprint", set: true, frac: 1, bench: "soplex"},
		{name: "mix instead of bench", set: true, frac: 0.7,
			wantErr: "-capacity only applies to -bench"},
		{name: "zero", set: true, frac: 0, bench: "soplex", wantErr: "in (0, 1]"},
		{name: "negative", set: true, frac: -0.5, bench: "soplex", wantErr: "in (0, 1]"},
		{name: "above footprint", set: true, frac: 1.5, bench: "soplex", wantErr: "in (0, 1]"},
		{name: "NaN", set: true, frac: math.NaN(), bench: "soplex", wantErr: "in (0, 1]"},
	}
	for _, c := range cases {
		err := validateCapacity(c.set, c.frac, c.bench)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

// TestInjectSpecValidation pins which -inject specs a run accepts: the
// sites a simulation rolls, and not tracetrunc, whose trace files no
// compresso-sim run writes.
func TestInjectSpecValidation(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string // substring; empty = must pass
	}{
		{spec: ""},
		{spec: "bitflip:1e-6,mdmiss:1e-4"},
		{spec: "tracetrunc:0"},
		{spec: "tracetrunc:0.5", wantErr: "site tracetrunc"},
		{spec: "mdmiss:0.1,tracetrunc:1e-3", wantErr: "site tracetrunc"},
		{spec: "bogus:0.1", wantErr: "unknown site"},
		{spec: "bitflip", wantErr: "bad spec entry"},
	}
	for _, c := range cases {
		_, err := parseInject(c.spec, 1)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", c.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: error %v, want substring %q", c.spec, err, c.wantErr)
		}
	}
}

// TestInjectUnknownSiteSuggestsOnlyInjectableSites: the error for an
// unknown -inject site lists the sites a run can inject, and not
// tracetrunc, which parseInject would then reject.
func TestInjectUnknownSiteSuggestsOnlyInjectableSites(t *testing.T) {
	_, err := parseInject("bogus:0.5", 1)
	const want = `faults: unknown site "bogus" (have bitflip, metaflip, chunkdrop, chunkdup, mdmiss)`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestResilienceFlagValidation pins the resilience flag contract: every
// nonsensical combination is a flag error (exit 2) carrying an
// actionable message, and every documented-good shape passes.
func TestResilienceFlagValidation(t *testing.T) {
	okJournal := t.TempDir()
	j, err := journal.Open(okJournal)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	noJournal := t.TempDir()

	base := resilienceFlags{Retry: 1}
	with := func(mut func(*resilienceFlags)) resilienceFlags {
		f := base
		mut(&f)
		return f
	}
	cases := []struct {
		name    string
		f       resilienceFlags
		wantErr string // substring; empty = must pass
	}{
		{"defaults", base, ""},
		{"jobs zero is all cores", with(func(f *resilienceFlags) { f.JobsSet = true; f.Jobs = 0 }), ""},
		{"jobs negative", with(func(f *resilienceFlags) { f.JobsSet = true; f.Jobs = -2 }), "-jobs must be >= 1"},
		{"retry zero", with(func(f *resilienceFlags) { f.Retry = 0 }), "-retry is the total attempts"},
		{"retry negative", with(func(f *resilienceFlags) { f.Retry = -1 }), "-retry is the total attempts"},
		{"retry-base negative", with(func(f *resilienceFlags) { f.RetryBase = -time.Second }), "-retry-base must be >= 0"},
		{"retry-cap negative", with(func(f *resilienceFlags) { f.RetryCap = -time.Second }), "-retry-cap must be >= 0"},
		{"cell-timeout negative", with(func(f *resilienceFlags) { f.CellTimeout = -time.Second }), "-cell-timeout must be >= 0"},
		{"resume vs journal disagree", with(func(f *resilienceFlags) {
			f.Exp = "all"
			f.Resume = okJournal
			f.Journal = noJournal
		}), "disagree"},
		{"resume equal to journal", with(func(f *resilienceFlags) {
			f.Exp = "all"
			f.Resume = okJournal
			f.Journal = okJournal
		}), ""},
		{"resume without exp", with(func(f *resilienceFlags) { f.Resume = okJournal }), "-resume only applies to experiment runs"},
		{"journal without exp", with(func(f *resilienceFlags) { f.Journal = okJournal }), "-journal only applies to experiment runs"},
		{"quarantine without exp", with(func(f *resilienceFlags) { f.Quarantine = true }), "-quarantine only applies to experiment runs"},
		{"chaos without exp", with(func(f *resilienceFlags) { f.Chaos = "cellpanic:0.1" }), "-chaos only applies to experiment runs"},
		{"cell-timeout without exp", with(func(f *resilienceFlags) { f.CellTimeout = time.Second }), "-cell-timeout only applies to experiment runs"},
		{"retry without exp", with(func(f *resilienceFlags) { f.Retry = 3 }), "-retry only applies to experiment runs"},
		{"resume missing journal file", with(func(f *resilienceFlags) {
			f.Exp = "all"
			f.Resume = noJournal
		}), "no journal to resume"},
		{"journal of fresh dir is fine", with(func(f *resilienceFlags) {
			f.Exp = "all"
			f.Journal = noJournal
		}), ""},
		{"full resilient run", with(func(f *resilienceFlags) {
			f.Exp = "all"
			f.Resume = okJournal
			f.Retry = 3
			f.RetryBase = time.Second
			f.RetryCap = 10 * time.Second
			f.CellTimeout = time.Minute
			f.Quarantine = true
			f.Chaos = "celltransient:0.2"
		}), ""},
	}
	for _, c := range cases {
		err := c.f.validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestJournalDirResolution(t *testing.T) {
	if d := (resilienceFlags{Resume: "a"}).journalDir(); d != "a" {
		t.Fatalf("resume dir = %q", d)
	}
	if d := (resilienceFlags{Journal: "b"}).journalDir(); d != "b" {
		t.Fatalf("journal dir = %q", d)
	}
	if d := (resilienceFlags{}).journalDir(); d != "" {
		t.Fatalf("default dir = %q", d)
	}
}
