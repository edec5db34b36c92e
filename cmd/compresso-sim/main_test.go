package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"compresso/internal/journal"
)

// newJournal returns a fresh directory holding an empty journal, the
// shape -resume requires.
func newJournal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return dir
}

// parseCase is one argv and what parseArgs must make of it: the mode
// it runs, or a usage error (exit 2) naming the flags involved.
type parseCase struct {
	name string
	args string // split on spaces
	mode *mode  // when err is empty
	err  string // substring; empty = accepted
}

func runParseCases(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseArgs(strings.Fields(tc.args), io.Discard)
			if tc.err == "" {
				if err != nil {
					t.Fatalf("%s: unexpected error %v", tc.args, err)
				}
				if c.mode != tc.mode {
					t.Fatalf("%s: mode %s, want %s", tc.args, c.mode.name, tc.mode.name)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("%s: error %v, want substring %q", tc.args, err, tc.err)
			}
			if code := usageExit(err); code != exitUsage {
				t.Fatalf("%s: exit %d, want %d", tc.args, code, exitUsage)
			}
		})
	}
}

// TestParseArgs pins the command-line contract: which mode an argv
// runs, and which argvs are usage errors (exit 2) before anything
// runs: two mode flags, a flag the mode does not read, a flag without
// the flag it needs, an out-of-range value or an unknown name. The
// -trace-events, fleet, -capacity, -exp and resilience rows are in
// the tests below.
func TestParseArgs(t *testing.T) {
	runParseCases(t, []parseCase{
		// Each mode, alone and with the flags it reads.
		{name: "promcheck", args: "-promcheck metrics.txt", mode: modePromCheck},
		{name: "list", args: "-list", mode: modeList},
		{name: "systems", args: "-systems -cpuprofile cpu.prof", mode: modeSystems},
		{name: "exp", args: "-exp fig9", mode: modeExp},
		{name: "exp with sweep flags", args: "-exp all -quick -jobs 2 -seed 0 -json out -progress -serve :0 -trace-out t.json", mode: modeExp},
		{name: "fleet default", args: "-fleet", mode: modeFleet},
		{name: "fleet explicit", args: "-fleet -fleet-nodes 32 -fleet-policy static -quick -scale 8", mode: modeFleet},
		{name: "capacity at 70%", args: "-bench soplex -capacity 0.7", mode: modeCapacity},
		{name: "capacity full footprint", args: "-bench soplex -capacity 1 -ops 1000 -json out", mode: modeCapacity},
		{name: "bench", args: "-bench gcc", mode: modeBench},
		{name: "bench compare", args: "-bench gcc -compare -ops 100000 -scale 8 -trace-events 1024 -json-summary -json out", mode: modeBench},
		{name: "bench with robustness", args: "-bench gcc -inject bitflip:1e-6 -audit-every 10", mode: modeBench},
		{name: "bench observed", args: "-bench mcf -attribution -top-pages 16 -sample-every 100 -sample-windows 8 -serve :0", mode: modeBench},
		{name: "mix", args: "-mix mix1 -ops 50000 -overlap -inject chunkdrop:1e-3", mode: modeMix},
		{name: "demo", args: "-inject bitflip:1e-6 -audit-every 1000", mode: modeDemo},
		{name: "demo audit only", args: "-audit-every 10", mode: modeDemo},
		{name: "explicit false is unset", args: "-fleet=false -bench gcc", mode: modeBench},

		// Two mode flags, and flags another mode reads.
		{name: "bench and mix", args: "-bench gcc -mix mix1", err: "-bench and -mix each pick a mode"},
		{name: "fleet and bench", args: "-fleet -bench gcc", err: "-fleet and -bench each pick a mode"},
		{name: "list and bench", args: "-list -bench gcc", err: "-list and -bench each pick a mode"},
		{name: "systems and exp", args: "-systems -exp all", err: "-systems and -exp each pick a mode"},
		{name: "bench progress", args: "-progress -bench gcc", err: "-bench runs do not read -progress"},
		{name: "bench quick", args: "-quick -bench gcc", err: "-bench runs do not read -quick"},
		{name: "demo system", args: "-inject bitflip:1e-6 -system cram", err: "-inject/-audit-every runs do not read -system"},
		{name: "promcheck quick", args: "-promcheck m.txt -quick", err: "-promcheck runs do not read -quick"},
		{name: "no mode", args: "", err: "no mode flag given"},
		{name: "no mode quick", args: "-quick", err: "no mode flag given"},

		// Flags that need another, and a conflicting pair.
		{name: "system with compare", args: "-bench gcc -compare -system cram", err: "-system and -compare conflict"},
		{name: "top-pages without attribution", args: "-bench gcc -top-pages 4", err: "-top-pages needs -attribution"},
		{name: "chaos-seed without chaos", args: "-exp fig2 -chaos-seed 3", err: "-chaos-seed needs -chaos"},
		{name: "chaos-delay without chaos", args: "-exp fig2 -chaos-delay 1ms", err: "-chaos-delay needs -chaos"},
		{name: "retry-base without retry", args: "-exp fig2 -retry-base 1ms", err: "-retry-base needs -retry"},
		{name: "sample-every without serve", args: "-bench gcc -sample-every 100", err: "-sample-every needs -serve"},
		{name: "sample-windows without sample-every", args: "-bench gcc -serve :0 -sample-windows 8", err: "-sample-windows needs -sample-every"},
		{name: "json-summary without json", args: "-bench gcc -json-summary", err: "-json-summary needs -json"},

		// Out-of-range -scale, -ops and observation bounds.
		{name: "bench scale zero", args: "-bench gcc -scale 0", err: "-scale must be >= 1"},
		{name: "mix scale zero", args: "-mix mix1 -scale 0", err: "-scale must be >= 1"},
		{name: "bench scale negative", args: "-bench gcc -scale -3", err: "-scale must be >= 1"},
		{name: "fleet scale zero", args: "-fleet -scale 0", err: "-scale must be >= 1"},
		{name: "bench ops zero", args: "-bench gcc -ops 0", err: "-ops must be >= 1"},
		{name: "top-pages negative", args: "-bench gcc -attribution -top-pages -1", err: "-top-pages must be >= 0"},
		{name: "sample-windows zero", args: "-bench gcc -serve :0 -sample-every 10 -sample-windows 0", err: "-sample-windows must be >= 1"},

		// Name-valued flags resolve while parsing.
		{name: "unknown experiment", args: "-exp bogus", err: `-exp: unknown experiment "bogus"`},
		{name: "unknown benchmark", args: "-bench nosuch", err: `-bench: workload: unknown benchmark "nosuch"`},
		{name: "unknown system", args: "-bench gcc -system bogus", err: `-system: unknown system "bogus"`},
		{name: "unknown mix", args: "-mix mix99", err: `-mix: unknown mix "mix99" (have mix1, mix2, mix3, mix4, mix5, mix6, mix7, mix8, mix9, mix10)`},
		{name: "unknown inject site", args: "-inject bogus:1", err: `-inject: faults: unknown site "bogus"`},
	})
	if _, err := parseArgs([]string{"-h"}, io.Discard); usageExit(err) != exitOK {
		t.Fatalf("-h: error %v exits %d, want %d", err, usageExit(err), exitOK)
	}
}

// TestValidateTraceEvents pins the -trace-events contract: an
// explicitly set non-positive value is a usage error rather than a
// silent no-op tracer; only omitting the flag disables tracing.
func TestValidateTraceEvents(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "unset", args: "-bench gcc", mode: modeBench},
		{name: "trace-events 1024", args: "-bench gcc -trace-events 1024", mode: modeBench},
		{name: "trace-events 1", args: "-bench gcc -trace-events 1", mode: modeBench},
		{name: "trace-events 0", args: "-bench gcc -trace-events 0", err: "-trace-events must be a positive ring capacity"},
		{name: "trace-events negative", args: "-bench gcc -trace-events -100", err: "-trace-events must be a positive ring capacity"},
	})
}

// TestFleetFlagValidation pins the -fleet flag family: -fleet-* without
// -fleet, a non-positive fleet size and an unknown policy are usage
// errors, and the documented-good shapes pass.
func TestFleetFlagValidation(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "disabled default", args: "-bench gcc", mode: modeBench},
		{name: "enabled default", args: "-fleet", mode: modeFleet},
		{name: "enabled explicit", args: "-fleet -fleet-nodes 32 -fleet-policy static", mode: modeFleet},
		{name: "fleet-nodes without fleet", args: "-fleet-nodes 32", err: "-fleet-nodes needs -fleet"},
		{name: "fleet-policy without fleet", args: "-bench gcc -fleet-policy static", err: "-fleet-policy needs -fleet"},
		{name: "fleet zero nodes", args: "-fleet -fleet-nodes 0", err: "-fleet-nodes must be >= 1"},
		{name: "fleet negative nodes", args: "-fleet -fleet-nodes -4", err: "-fleet-nodes must be >= 1"},
		{name: "fleet unknown policy", args: "-fleet -fleet-policy yolo", err: "unknown policy"},
	})
}

// TestCapacityFlagValidation pins the -capacity contract: a fraction in
// (0, 1] of a -bench run, or a usage error instead of a silently
// ignored flag or a nonsensical budget.
func TestCapacityFlagValidation(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "unset with bench", args: "-bench gcc", mode: modeBench},
		{name: "bench at 70%", args: "-bench soplex -capacity 0.7", mode: modeCapacity},
		{name: "full footprint", args: "-bench soplex -capacity 1", mode: modeCapacity},
		{name: "capacity with mix", args: "-mix mix1 -capacity 0.7", err: "-capacity needs -bench"},
		{name: "capacity zero", args: "-bench soplex -capacity 0", err: "in (0, 1]"},
		{name: "capacity negative", args: "-bench soplex -capacity -0.5", err: "in (0, 1]"},
		{name: "capacity above footprint", args: "-bench soplex -capacity 1.5", err: "in (0, 1]"},
		{name: "capacity NaN", args: "-bench soplex -capacity NaN", err: "in (0, 1]"},
		{name: "capacity with compare", args: "-bench gcc -capacity 0.7 -compare", err: "-bench -capacity runs do not read -compare"},
	})
}

// TestExpFlagValidation pins the -exp contract: a flag that selects or
// configures another run mode is a usage error next to -exp, instead of
// being silently ignored; sweep-wide flags pass.
func TestExpFlagValidation(t *testing.T) {
	runParseCases(t, []parseCase{
		{name: "exp alone", args: "-exp fig9", mode: modeExp},
		{name: "exp with sweep flags", args: "-exp all -quick -jobs 2 -seed 0 -json out", mode: modeExp},
		{name: "exp and bench", args: "-exp fig9 -bench gcc", err: "-exp and -bench each pick a mode"},
		{name: "exp and mix", args: "-exp all -mix mix1", err: "-exp and -mix each pick a mode"},
		{name: "exp and fleet", args: "-exp fleet-sweep -fleet", err: "-exp and -fleet each pick a mode"},
		{name: "exp inject", args: "-exp fig9 -quick -inject bitflip:1e-6", err: "-exp runs do not read -inject"},
		{name: "exp audit-every", args: "-exp fig9 -audit-every 10", err: "-exp runs do not read -audit-every"},
		{name: "exp trace-events", args: "-exp fig2 -trace-events 64", err: "-exp runs do not read -trace-events"},
	})
}

// TestResilienceFlagValidation pins the resilience flag contract: every
// nonsensical combination is a usage error carrying an actionable
// message, and every documented-good shape passes.
func TestResilienceFlagValidation(t *testing.T) {
	okJournal := newJournal(t)
	noJournal := t.TempDir()
	runParseCases(t, []parseCase{
		{name: "exp jobs zero is all cores", args: "-exp all -jobs 0", mode: modeExp},
		{name: "jobs negative", args: "-exp all -jobs -2", err: "-jobs must be >= 1"},
		{name: "retry zero", args: "-exp all -retry 0", err: "-retry is the total attempts"},
		{name: "retry negative", args: "-exp all -retry -1", err: "-retry is the total attempts"},
		{name: "retry-base negative", args: "-exp all -retry 3 -retry-base -1s", err: "-retry-base must be >= 0"},
		{name: "retry-cap negative", args: "-exp all -retry 3 -retry-cap -1s", err: "-retry-cap must be >= 0"},
		{name: "cell-timeout negative", args: "-exp all -cell-timeout -1s", err: "-cell-timeout must be >= 0"},
		{name: "resume vs journal disagree", args: "-exp all -resume " + okJournal + " -journal " + noJournal, err: "disagree"},
		{name: "resume equal to journal", args: "-exp all -resume " + okJournal + " -journal " + okJournal, mode: modeExp},
		{name: "resume without exp", args: "-bench gcc -resume " + okJournal, err: "-bench runs do not read -resume"},
		{name: "journal without exp", args: "-mix mix1 -journal " + okJournal, err: "-mix runs do not read -journal"},
		{name: "quarantine without exp", args: "-bench gcc -quarantine", err: "-bench runs do not read -quarantine"},
		{name: "chaos without exp", args: "-bench gcc -chaos cellpanic:0.1", err: "-bench runs do not read -chaos"},
		{name: "cell-timeout without exp", args: "-fleet -cell-timeout 1s", err: "-fleet runs do not read -cell-timeout"},
		{name: "retry without exp", args: "-bench gcc -retry 3", err: "-bench runs do not read -retry"},
		{name: "resume alone", args: "-resume " + okJournal, err: "no mode flag given"},
		{name: "resume missing journal file", args: "-exp all -resume " + noJournal, err: "no journal to resume"},
		{name: "journal of fresh dir is fine", args: "-exp all -journal " + noJournal, mode: modeExp},
		{name: "full resilient run", args: "-exp all -resume " + okJournal + " -retry 3 -retry-base 1s -retry-cap 10s" +
			" -cell-timeout 1m -quarantine -chaos celltransient:0.2 -chaos-seed 7 -chaos-delay 1ms", mode: modeExp},
	})
}

// TestModeTableNamesDefinedFlags: every flag the mode table names is
// defined, and every defined flag is read by some mode, so a typo in
// the table cannot silently reject a flag.
func TestModeTableNamesDefinedFlags(t *testing.T) {
	var usage strings.Builder
	parseArgs([]string{"-h"}, &usage)
	defined := map[string]bool{}
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			defined[strings.Fields(name)[0]] = true
		}
	}
	read := map[string]bool{}
	for _, m := range modes {
		for _, name := range strings.Fields(m.flags) {
			if !defined[name] {
				t.Errorf("%s reads undefined flag -%s", m.name, name)
			}
			read[name] = true
		}
	}
	for name := range defined {
		if !read[name] {
			t.Errorf("no mode reads -%s", name)
		}
	}
	if len(defined) < 40 {
		t.Fatalf("found %d flags in the usage text", len(defined))
	}
}

// TestDocumentedCommandsParse requires every `go run ./cmd/compresso-sim`
// command in README.md and EXPERIMENTS.md to parse, so the docs cannot
// drift from the mode table.
func TestDocumentedCommandsParse(t *testing.T) {
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		cmds := documentedCommands(t, doc)
		if len(cmds) == 0 {
			t.Fatalf("%s: no compresso-sim commands found", doc)
		}
		for _, args := range cmds {
			for i := range args {
				if i > 0 && args[i-1] == "-resume" {
					args[i] = newJournal(t)
				}
			}
			if _, err := parseArgs(args, io.Discard); err != nil {
				t.Errorf("%s: compresso-sim %s: %v", doc, strings.Join(args, " "), err)
			}
		}
	}
}

// documentedCommands returns the arguments of every
// `go run ./cmd/compresso-sim` command in a Markdown file: inline code
// spans, which may wrap across lines, and code-block lines with their
// `\` continuations joined and any trailing `#` comment dropped.
func documentedCommands(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/compresso-sim"
	text := string(data)
	var cmds [][]string
	for {
		i := strings.Index(text, prefix)
		if i < 0 {
			return cmds
		}
		inline := i > 0 && text[i-1] == '`'
		text = text[i+len(prefix):]
		var cmd string
		if inline {
			cmd, _, _ = strings.Cut(text, "`")
		} else {
			for {
				line, rest, _ := strings.Cut(text, "\n")
				line, more := strings.CutSuffix(strings.TrimSpace(line), `\`)
				cmd += " " + line
				if !more {
					break
				}
				text = rest
			}
			cmd, _, _ = strings.Cut(cmd, " #")
		}
		args := strings.Fields(cmd)
		for j, a := range args {
			args[j] = strings.Trim(a, `'"`)
		}
		cmds = append(cmds, args)
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

// TestJournalDirResolution: -resume journals into the directory it
// resumes from; -journal names a fresh one; neither journals nothing.
func TestJournalDirResolution(t *testing.T) {
	resumed := newJournal(t)
	for _, tc := range []struct{ args, want string }{
		{"-exp all -resume " + resumed, resumed},
		{"-exp all -journal b", "b"},
		{"-exp all", ""},
	} {
		c, err := parseArgs(strings.Fields(tc.args), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if c.journal != tc.want {
			t.Fatalf("%s: journal dir %q, want %q", tc.args, c.journal, tc.want)
		}
	}
}
