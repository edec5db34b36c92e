// Command benchmark measures the Compresso simulator's host-time
// performance: how long the simulator itself takes and how much memory
// it uses on fixed workloads, and, in a separate traced run, where that
// time goes layer by layer. It drives the simulator only through its
// public packages. README.md lists the workloads and metrics.
//
// From the repository root:
//
//	bash benchmark/run.sh -workload mix1-paper -seed 42 -seconds 20 -trace 0
//	bash benchmark/run.sh -workload gems-observed -trace 1 -spans spans.json
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// A run repeats the workload, each repetition in a fresh process, for
// about -seconds (at least two repetitions), checks every result, and
// prints as its last line one JSON object: whether the outputs were
// correct, how many cells were attempted and failed, and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, repetitions included.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 42, "seed every workload input is generated from")
	seconds := flag.Int("seconds", 20, "keep repeating the workload for this many seconds (1-120)")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced per-layer ledger")
	spans := flag.String("spans", "", "with -trace 1: write the sampled span trees of one traced repetition to this Chrome trace file")
	out := flag.String("out", "", "append the run's full record (provenance, samples, digests) as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare the runs in the two -out files given as arguments, by the bounds in BENCHMARK.json")
	rep := flag.String("rep", "", "run a single repetition of this kind (plain, traced or start) in this process; used by the run itself")
	flag.Parse()

	if *compare {
		os.Exit(runCompare("BENCHMARK.json", flag.Args(), os.Stdout))
	}
	w, ok := lookup(*name)
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *rep != "" {
		repMain(w, *rep, *seed, *spans)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 || *seconds > 120 {
		fatalf("-seconds must be between 1 and 120")
	}
	if *spans != "" && *trace != 1 {
		fatalf("-spans needs -trace 1")
	}

	reps := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	rec := summarize(w, *seed, *seconds, *trace, reps)
	report(os.Stdout, rec, reps)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatalf("%v", err)
		}
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics}
	if err := json.NewEncoder(os.Stdout).Encode(final); err != nil {
		fatalf("writing the result: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// repMain is a repetition process: it signals that start-up is done,
// runs the repetition and prints its record.
func repMain(w *spec, kind string, seed uint64, spans string) {
	fmt.Println("ready")
	var rec repRecord
	switch kind {
	case repStart:
	case repPlain:
		rec = w.plainRep(seed)
	case repTraced:
		rec = w.tracedRep(seed, spans)
	default:
		fatalf("unknown repetition kind %q", kind)
	}
	rec.Kind = kind
	rec.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fatalf("writing the repetition record: %v", err)
	}
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MB, or
// 0 where /proc does not report it. getrusage would not do: on Linux
// its peak carries over the parent's from before exec.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// repSample is one repetition as the parent saw it.
type repSample struct {
	rec     repRecord
	startup time.Duration // from starting the process until it was ready
	probe   time.Duration // mean host probe before and after
	failed  bool          // the process did not deliver a record
}

// scale is the factor that turns the repetition's times into seconds
// at the reference host speed (see probe.go).
func (r repSample) scale() float64 {
	return probeRef.Seconds() / r.probe.Seconds()
}

// startSamples is how many extra processes that only start up are timed
// per repetition; a repetition's start-up is the median over them and
// its own.
const startSamples = 4

// measure runs repetitions, each in a fresh process: untraced ones, or
// with traced pairs of an untraced and a traced one, the untraced first
// so the traced digests have a reference. It runs at least two
// repetitions, then stops before a repetition (or pair) that the last
// one's duration says would end after budget.
func measure(w *spec, seed uint64, budget time.Duration, traced bool, spans string) []repSample {
	// An interrupt or the deadline kills the running repetition, which
	// then counts as failed, and the run reports what it has.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	start := time.Now()
	step := start
	before := probeHost()
	var reps []repSample
	for i := 0; ; i++ {
		kind, file := repPlain, ""
		if traced && i%2 == 1 {
			kind = repTraced
			if i == 1 {
				file = spans
			}
		}
		var starts []float64
		for range startSamples {
			if s := spawn(ctx, w, seed, repStart, ""); !s.failed {
				starts = append(starts, s.startup.Seconds())
			}
		}
		s := spawn(ctx, w, seed, kind, file)
		after := probeHost()
		s.probe, before = (before+after)/2, after
		s.startup = time.Duration(median(append(starts, s.startup.Seconds())) * float64(time.Second))
		reps = append(reps, s)
		if s.failed {
			return reps
		}
		if i == 0 || traced && kind == repPlain {
			continue
		}
		now := time.Now()
		if now.Sub(start)+now.Sub(step) > budget {
			return reps
		}
		step = now
	}
}

// spawn runs one repetition in a child process of this executable.
func spawn(ctx context.Context, w *spec, seed uint64, kind, spans string) repSample {
	fail := func(err error) repSample {
		return repSample{failed: true, rec: repRecord{Kind: kind, Cells: []cellOutcome{{Name: "process", Err: err.Error()}}}}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	args := []string{"-rep", kind, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return fail(err)
	}
	r := bufio.NewReader(stdout)
	ready, _ := r.ReadString('\n')
	startup := time.Since(t0)
	rest, readErr := io.ReadAll(r)
	if err := errors.Join(readErr, cmd.Wait()); err != nil {
		return fail(fmt.Errorf("repetition process: %w", err))
	}
	var rec repRecord
	if ready != "ready\n" {
		return fail(fmt.Errorf("repetition process did not start cleanly: %q", ready))
	}
	if err := json.Unmarshal(rest, &rec); err != nil {
		return fail(fmt.Errorf("repetition record: %w", err))
	}
	return repSample{rec: rec, startup: startup}
}

// provenance identifies the host and build a run was measured on.
type provenance struct {
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func hostProvenance() provenance {
	p := provenance{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown", VCSModified: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

// runRecord is everything one run measured, as -out stores it.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Repetitions int                    `json:"repetitions"`
	Provenance  provenance             `json:"provenance"`
	Config      map[string]any         `json:"config"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailFrac    float64                `json:"fail_frac"`
	Problems    []string               `json:"problems,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string][]float64   `json:"samples"` // end-to-end values per untraced repetition
	Digests     map[string]string      `json:"digests"` // per cell, from the first repetition
}

func summarize(w *spec, seed uint64, seconds, trace int, reps []repSample) runRecord {
	recs := make([]repRecord, len(reps))
	for i, r := range reps {
		recs[i] = r.rec
	}
	attempted, failed, problems := tally(recs)
	rec := runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Repetitions: len(reps),
		Provenance: hostProvenance(), Config: w.describe(),
		Correct: failed == 0, Attempted: attempted, Failed: failed, Problems: problems,
		Metrics: map[string]metricValue{}, Samples: endToEndSamples(reps), Digests: map[string]string{},
	}
	if attempted > 0 {
		rec.FailFrac = float64(failed) / float64(attempted)
	}
	for _, c := range recs[0].Cells {
		rec.Digests[c.Name] = c.Digest
	}
	if trace == 1 {
		values := layerValues(reps)
		for _, m := range perLayer() {
			rec.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
		return rec
	}
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = metricValue{Value: median(rec.Samples[m.Name]), Unit: m.Unit}
	}
	return rec
}

// report prints the human-readable account of a run that precedes the
// result line.
func report(out io.Writer, rec runRecord, reps []repSample) {
	fmt.Fprintf(out, "benchmark %s: seed %d, %d repetitions\n", rec.Workload, rec.Seed, len(reps))
	prov, _ := json.Marshal(rec.Provenance)
	cfg, _ := json.Marshal(rec.Config)
	fmt.Fprintf(out, "provenance %s\nconfig %s\n", prov, cfg)
	for i, r := range reps {
		if r.failed {
			fmt.Fprintf(out, "rep %d %s: no record\n", i+1, r.rec.Kind)
			continue
		}
		fmt.Fprintf(out, "rep %d %-6s start-up %.1f ms, set-up %.3f s, run %.3f s, alloc %.1f MB, max rss %.1f MB, probe %.2f ms (scale %.3f)",
			i+1, r.rec.Kind, r.startup.Seconds()*1e3, r.rec.SetupS, r.rec.RunS, r.rec.AllocMB, r.rec.PeakRSSMB,
			r.probe.Seconds()*1e3, r.scale())
		if r.rec.Ops > 0 {
			fmt.Fprintf(out, ", %.3g simops/s", float64(r.rec.Ops)/r.rec.RunS)
		}
		fmt.Fprintln(out)
	}
	for _, c := range reps[0].rec.Cells {
		fmt.Fprintf(out, "digest %s %s\n", c.Name, c.Digest)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(out, "FAILED %s\n", p)
	}
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}
