# Verification gauntlet for the Compresso reproduction. `make check`
# is the gate a change must pass before merging (see README).

GO ?= go
# Worker count for the chaos/soak harnesses (0 = all cores).
JOBS ?= 0

.PHONY: check vet fmt-check build test seam race fuzz bench-quick bench-json bench-json-check full-sweep-check bench-kernels backends fleet obs-smoke chaos soak

check: vet fmt-check build test seam race bench-kernels bench-json-check full-sweep-check backends fleet obs-smoke chaos

vet:
	$(GO) vet ./...

# gofmt cleanliness gate: any file gofmt would rewrite fails the check.
fmt-check:
	@files=$$(gofmt -l cmd internal examples benchmark *.go); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The host-time benchmark is its own module, so `go test ./...` above
# does not reach it. Its seam tests rebuild RunSingle and RunMix from
# the layer packages and require byte-identical results on every
# backend: an independent oracle for the simulator's run loop.
seam:
	cd benchmark && $(GO) test ./...

# The concurrency-bearing packages: the parallel fan-out primitive,
# the experiments that run cells through it, the simulator whose
# state those cells must not share (and whose concurrent runs claim,
# record and replay the process's cache-filter logs), the cache
# hierarchies those logs drive and the metadata codec every run packs
# entries with, the capacity tracker's fanned-out construction scan,
# the workload images' process-wide pristine size and LZ block tables,
# the dmc/mxt controllers that price blocks through them, and the obs
# snapshots the live server reads while runs write them. The
# heaviest sweeps skip under the race detector (see raceEnabled in
# internal/experiments); the light cells still cover every grid call
# shape on parallel.MapResilient.
race:
	$(GO) test -race -timeout 20m ./internal/core/... ./internal/sim/... \
		./internal/parallel/... ./internal/experiments/... \
		./internal/progress/... ./internal/obshttp/... \
		./internal/memctl/... ./internal/cram/... ./internal/cxl/... \
		./internal/fleet/... ./internal/capacity/... \
		./internal/workload/... ./internal/cache/... ./internal/metadata/... \
		./internal/dmc/... ./internal/obs/...

# Time one full quick-mode RunAll sweep serial vs parallel. The output
# is byte-identical by contract; only the wall time should differ.
bench-quick:
	$(GO) test -run '^$$' -bench BenchmarkRunAllQuick -benchtime 1x -jobs 1 .
	$(GO) test -run '^$$' -bench BenchmarkRunAllQuick -benchtime 1x .

# Compression-kernel microbenchmarks (DESIGN.md §10): one iteration
# each with -benchmem, enough for `check` to catch an allocation
# regression on the size path the simulators run (the 0-allocs
# property is also pinned hard by TestSizeOnlyZeroAllocs, and at the
# 1 KiB LZ block size by TestLZBlockZeroAllocs). Run with a real
# -benchtime for ns/op numbers.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Compress|SizeOnly|Writer|Reader' \
		-benchmem -benchtime 1x ./internal/compress/ ./internal/bitstream/

# The runs behind the committed BENCH_*.json artifacts, as one shell
# command over $$bin (a compresso-sim binary) writing into $$out: a
# single-benchmark four-system comparison, one Tab. IV mix, the CRAM
# and CXL backends, and the attribution and fleet experiments.
# -json-summary drops the raw trace events from the committed files
# (trace totals/drop counts survive); drop the flag for the full-trace
# escape hatch when debugging a perf regression.
BENCH_JSON_RUNS = \
	$$bin -bench gcc -compare -ops 100000 -scale 8 \
		-trace-events 1024 -json-summary -json $$out > /dev/null && \
	$$bin -mix mix1 -ops 50000 -scale 8 \
		-trace-events 1024 -json-summary -json $$out > /dev/null && \
	$$bin -bench gcc -system cram -ops 100000 -scale 8 \
		-trace-events 1024 -json-summary -json $$out > /dev/null && \
	$$bin -bench gcc -system cxl -ops 100000 -scale 8 \
		-trace-events 1024 -json-summary -json $$out > /dev/null && \
	$$bin -exp attribution -quick -json $$out > /dev/null && \
	$$bin -exp fleet-sweep -quick -json $$out > /dev/null

# Snapshot the perf-tracking baseline as BENCH_*.json artifacts
# (DESIGN.md §8), each carrying the full metrics-registry snapshot.
bench-json:
	@set -e; out=.bench-json-tmp; bin=$$out/compresso-sim; \
	rm -rf $$out; mkdir -p $$out; trap 'rm -rf .bench-json-tmp' EXIT; \
	$(GO) build -o $$bin ./cmd/compresso-sim; \
	$(BENCH_JSON_RUNS); \
	for f in $$out/*.json; do mv "$$f" "BENCH_$${f##*/}"; done
	@ls BENCH_*.json

# Artifact gate: regenerate every BENCH_*.json into a temporary
# directory and require each to be byte-identical to the committed
# file, naming every one that drifted (or that the runs no longer
# write, or write without a committed counterpart). The runs are
# deterministic, so any difference is a behaviour change; a legitimate
# one is committed by rerunning `make bench-json`.
bench-json-check:
	@set -e; out=$$(mktemp -d); bin=$$out/compresso-sim; trap 'rm -rf "$$out"' EXIT; \
	$(GO) build -o $$bin ./cmd/compresso-sim; \
	$(BENCH_JSON_RUNS); \
	drift=""; \
	for f in BENCH_*.json; do cmp -s "$$f" "$$out/$${f#BENCH_}" || drift="$$drift $$f"; done; \
	for f in $$out/*.json; do [ -e "BENCH_$${f##*/}" ] || drift="$$drift BENCH_$${f##*/}"; done; \
	[ -z "$$drift" ] || { echo "bench-json-check: drifted from the committed artifacts:$$drift"; exit 1; }; \
	echo "bench-json-check: ok ($$(ls $$out/*.json | wc -l) artifacts byte-identical)"

# Full-sweep gate: rerun every experiment at full fidelity on two
# workers (about 40 s on 2 vCPUs) and require the text output to be
# byte-identical to the committed experiments_full.txt, printing the
# first differing hunk. A legitimate change regenerates the file
# with `compresso-sim -exp all -jobs 2 > experiments_full.txt`.
full-sweep-check:
	@set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(GO) build -o $$out/compresso-sim ./cmd/compresso-sim; \
	$$out/compresso-sim -exp all -jobs 2 > $$out/full.txt; \
	cmp -s $$out/full.txt experiments_full.txt || { \
		echo "full-sweep-check: output drifted from experiments_full.txt (< committed, > this build); first difference:"; \
		diff experiments_full.txt $$out/full.txt | awk 'NR > 1 && /^[0-9]/ { exit } { print }' | head -n 8; \
		exit 1; }; \
	echo "full-sweep-check: ok (-exp all -jobs 2 byte-identical to experiments_full.txt)"

# Backend gate (DESIGN.md §12): run the registry-wide conformance
# suite and the config liveness gate (every field of every backend
# config is read), then a quick per-backend sweep for every registered
# backend, sha-verified against the committed BACKENDS.sha256 manifest. The
# six pre-refactor backends' hashes were captured from the pre-registry
# binary, so this doubles as the behavior-preservation proof; a
# legitimate output change must regenerate the manifest:
#   for b in $(.backends/compresso-sim -systems | tail -n +3 | cut -d' ' -f1); ...
# i.e. rerun the loop below and `sha256sum sweep_*.txt > BACKENDS.sha256`.
backends:
	@rm -rf .backends; mkdir -p .backends
	@$(GO) build -o .backends/compresso-sim ./cmd/compresso-sim
	@set -e; trap 'rm -rf .backends' EXIT; \
	$(GO) test -count 1 -run 'TestBackendConformance|TestEveryConfigFieldIsRead|TestAllSystemsCoversRegistry|TestAttribution' ./internal/sim/ > /dev/null; \
	names=$$(.backends/compresso-sim -systems | tail -n +3 | cut -d' ' -f1); \
	for b in $$names; do \
		.backends/compresso-sim -bench gcc -system $$b -ops 20000 -scale 16 \
			> .backends/sweep_$$b.txt; \
	done; \
	manifest=$$(wc -l < BACKENDS.sha256); swept=$$(echo "$$names" | wc -l); \
	[ "$$manifest" -eq "$$swept" ] || { \
		echo "backends: BACKENDS.sha256 lists $$manifest backends, registry has $$swept (regenerate the manifest)"; exit 1; }; \
	(cd .backends && sha256sum -c ../BACKENDS.sha256 --quiet) || { \
		echo "backends: sweep output drifted from BACKENDS.sha256"; exit 1; }; \
	echo "backends: ok ($$swept backends conformant, sweeps sha-verified)"

# Fleet gate (DESIGN.md §15): the multi-node tier-simulator package
# tests, then the fleet-sweep experiment in quick mode at -jobs 1 and
# -jobs 8 with text output and the JSON artifact sha-compared — the
# fleet determinism contract (byte-identical at any worker count)
# verified end to end through the real CLI.
fleet:
	@rm -rf .fleet; mkdir -p .fleet/j1 .fleet/j8
	@$(GO) build -o .fleet/compresso-sim ./cmd/compresso-sim
	@set -e; trap 'rm -rf .fleet' EXIT; \
	$(GO) test -count 1 ./internal/fleet/ > /dev/null; \
	.fleet/compresso-sim -exp fleet-sweep -quick -jobs 1 -json .fleet/j1 > .fleet/out1.txt; \
	.fleet/compresso-sim -exp fleet-sweep -quick -jobs 8 -json .fleet/j8 > .fleet/out8.txt; \
	cmp -s .fleet/out1.txt .fleet/out8.txt || { echo "fleet: text output differs across -jobs"; exit 1; }; \
	sha1=$$(cd .fleet/j1 && sha256sum *.json | sha256sum); \
	sha8=$$(cd .fleet/j8 && sha256sum *.json | sha256sum); \
	[ "$$sha1" = "$$sha8" ] || { echo "fleet: artifacts differ across -jobs"; exit 1; }; \
	echo "fleet: ok (package tests green, quick sweep sha-identical at -jobs 1 vs 8)"

# Live-introspection smoke test: start a sweep with -serve, poll the
# endpoints, wait for /metrics to carry the harness cell counters the
# server derives from the progress tracker, and validate the exposition
# with the binary's own -promcheck parser. Fails if any endpoint is
# unreachable, a harness counter never appears, or the exposition is
# malformed.
obs-smoke:
	@rm -rf .obs-smoke; mkdir -p .obs-smoke
	$(GO) build -o .obs-smoke/compresso-sim ./cmd/compresso-sim
	@set -e; \
	.obs-smoke/compresso-sim -exp all -serve 127.0.0.1:0 \
		> .obs-smoke/out.log 2> .obs-smoke/err.log & \
	pid=$$!; trap 'kill $$pid 2>/dev/null; rm -rf .obs-smoke' EXIT; \
	addr=""; for i in $$(seq 1 50); do \
		addr=$$(grep -oE '127\.0\.0\.1:[0-9]+' .obs-smoke/err.log | head -1); \
		[ -n "$$addr" ] && break; sleep 0.2; \
	done; \
	[ -n "$$addr" ] || { echo "obs-smoke: server never announced an address"; cat .obs-smoke/err.log; exit 1; }; \
	for i in $$(seq 1 50); do \
		curl -sf "http://$$addr/healthz" > /dev/null && break; sleep 0.2; \
	done; \
	curl -sf "http://$$addr/healthz" | grep -q ok; \
	curl -sf "http://$$addr/progress" | grep -q cells_total; \
	curl -sf "http://$$addr/timeseries" | grep -q harness; \
	curl -sf "http://$$addr/attribution" | grep -q charged_cycles; \
	curl -sf "http://$$addr/events?limit=5" > /dev/null; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/events?kind=bogus"); \
	[ "$$code" = "400" ] || { echo "obs-smoke: bad kind filter returned $$code, want 400"; exit 1; }; \
	for i in $$(seq 1 150); do \
		curl -sf "http://$$addr/metrics" > .obs-smoke/metrics.txt || break; \
		grep -q '^harness_cells_done ' .obs-smoke/metrics.txt && break; sleep 0.2; \
	done; \
	for m in harness_cells_total harness_cells_done; do \
		grep -q "^$$m " .obs-smoke/metrics.txt || { echo "obs-smoke: /metrics lacks $$m"; cat .obs-smoke/metrics.txt; exit 1; }; \
	done; \
	.obs-smoke/compresso-sim -promcheck .obs-smoke/metrics.txt; \
	echo "obs-smoke: ok ($$addr)"

# Deterministic in-process chaos sweep (DESIGN.md §11): journaled
# quarantine passes under seed-varied panic/transient/delay injection,
# then a clean resume that must exit 0 with text and artifacts
# byte-identical to an undisrupted run. Exit codes 1 (fatal abort) and
# 3 (quarantined cells) are legitimate mid-loop outcomes — the journal
# keeps every surviving cell, so each pass only shrinks the remainder.
chaos:
	@rm -rf .chaos; mkdir -p .chaos/ref-json .chaos/out-json
	@$(GO) build -o .chaos/compresso-sim ./cmd/compresso-sim
	@set -e; trap 'rm -rf .chaos' EXIT; \
	.chaos/compresso-sim -exp fig2 -quick -jobs $(JOBS) -json .chaos/ref-json > .chaos/ref.txt; \
	for i in 1 2 3 4 5; do \
		set +e; \
		.chaos/compresso-sim -exp fig2 -quick -jobs $(JOBS) -journal .chaos/journal \
			-chaos 'cellpanic:0.15,celltransient:0.15,celldelay:0.2' -chaos-seed $$i -chaos-delay 1ms \
			-retry 3 -retry-base 1ms -retry-cap 20ms -quarantine \
			> /dev/null 2> .chaos/err.txt; rc=$$?; set -e; \
		case $$rc in 0) break ;; 1|3) ;; \
			*) echo "chaos: pass $$i unexpected exit $$rc"; cat .chaos/err.txt; exit 1 ;; esac; \
	done; \
	.chaos/compresso-sim -exp fig2 -quick -jobs $(JOBS) -resume .chaos/journal \
		-json .chaos/out-json > .chaos/out.txt 2> .chaos/err.txt; \
	cmp -s .chaos/out.txt .chaos/ref.txt || { echo "chaos: resumed output diverged from clean run"; exit 1; }; \
	ref_sha=$$(cd .chaos/ref-json && sha256sum * | sha256sum); \
	out_sha=$$(cd .chaos/out-json && sha256sum * | sha256sum); \
	[ "$$ref_sha" = "$$out_sha" ] || { echo "chaos: artifacts diverged from clean run"; exit 1; }; \
	echo "chaos: ok (output and artifacts byte-identical after chaos + resume)"

# Longer kill/resume soak (DESIGN.md §11): the cellkill chaos site
# SIGKILLs the journaled run mid-sweep at seed-varied progress points;
# each resume replays the journal and advances until a pass survives,
# then a clean resume is sha-verified against the undisrupted run.
soak:
	@rm -rf .soak; mkdir -p .soak/ref-json .soak/out-json
	@$(GO) build -o .soak/compresso-sim ./cmd/compresso-sim
	@set -e; trap 'rm -rf .soak' EXIT; \
	.soak/compresso-sim -exp fig2 -quick -jobs $(JOBS) -json .soak/ref-json > .soak/ref.txt; \
	for i in 1 2 3 4 5 6 7 8; do \
		set +e; \
		.soak/compresso-sim -exp fig2 -quick -jobs $(JOBS) -journal .soak/journal \
			-chaos cellkill:0.08 -chaos-seed $$i \
			> /dev/null 2> .soak/err.txt; rc=$$?; set -e; \
		[ $$rc -eq 0 ] && break; \
		[ $$rc -eq 137 ] || { echo "soak: pass $$i unexpected exit $$rc"; cat .soak/err.txt; exit 1; }; \
		echo "soak: pass $$i SIGKILLed with $$(wc -l < .soak/journal/journal.jsonl) cells journaled"; \
	done; \
	.soak/compresso-sim -exp fig2 -quick -jobs $(JOBS) -resume .soak/journal \
		-json .soak/out-json > .soak/out.txt 2> .soak/err.txt; \
	cmp -s .soak/out.txt .soak/ref.txt || { echo "soak: resumed output diverged from clean run"; exit 1; }; \
	ref_sha=$$(cd .soak/ref-json && sha256sum * | sha256sum); \
	out_sha=$$(cd .soak/out-json && sha256sum * | sha256sum); \
	[ "$$ref_sha" = "$$out_sha" ] || { echo "soak: artifacts diverged from clean run"; exit 1; }; \
	echo "soak: ok (survived SIGKILL loop; output and artifacts byte-identical)"

# Longer fuzz of the controller invariants, of every codec's SizeOnly
# and the LZ block sizer against Compress (the size contract every
# controller and experiment rests on), of the LZ hash-chain
# matcher against its brute-force reference, of the fused BPC size
# kernel against the pre-fusion size path, of the shared LCP page
# layout behind the capacity model's LCP price, of the capacity
# model's one-pass stack-depth replay against the LRU pager, of the
# one-core cache-filter replay against live hierarchies of small
# geometries, of the multi-core private-level cache replay against live
# hierarchies under another interleave, of the word-level metadata entry codec against
# its bitstream reference, and of the attribution ledger's map-free
# hot-page profile against its map-and-scan reference (the default
# corpora run as part of `test`).
fuzz:
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzControllerReadWrite -fuzztime 60s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz '^FuzzCodecSizeOnly$$' -fuzztime 20s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz '^FuzzLZSizeBlock$$' -fuzztime 20s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz '^FuzzLZMatchEquivalence$$' -fuzztime 20s
	$(GO) test ./internal/workload/ -run '^$$' -fuzz '^FuzzBlockSizeMemo$$' -fuzztime 20s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz '^FuzzBPCSizeEquivalence$$' -fuzztime 20s
	$(GO) test ./internal/capacity/ -run '^$$' -fuzz '^FuzzLCPPageBytesBounded$$' -fuzztime 20s
	$(GO) test ./internal/capacity/ -run '^$$' -fuzz '^FuzzStackReplayMatchesPager$$' -fuzztime 20s
	$(GO) test ./internal/cache/ -run '^$$' -fuzz '^FuzzFilterReplayMatchesLive$$' -fuzztime 20s
	$(GO) test ./internal/cache/ -run '^$$' -fuzz '^FuzzPrivateReplayMatchesLive$$' -fuzztime 20s
	$(GO) test ./internal/metadata/ -run '^$$' -fuzz '^FuzzEntryCodecMatchesReference$$' -fuzztime 20s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzPageProfileMatchesReference$$' -fuzztime 20s
