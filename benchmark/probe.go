package main

import "time"

// The host this benchmark runs on is shared, and its speed drifts by
// half or more over minutes as other tenants come and go: a fixed
// workload measured ten times over a quarter of an hour varied by 40%
// from quartile to quartile. No statistic over one run's repetitions
// can remove drift that lasts longer than the run. So the run times a
// fixed probe task before and after every repetition, and scales the
// repetition's timed end-to-end metrics by probeRef over the probe's
// mean duration around it: they read as seconds on a host that runs the
// probe in probeRef. The probe shares no code with the simulator, so a
// change to the simulator moves the scaled metrics as it moves the raw
// ones, and it runs in the parent process, so it adds nothing to a
// repetition's memory.
//
// Of three candidate probes timed around 77 repetitions of mix1-paper
// and of a dmc cell on the reference host, a memory-latency probe
// (random updates over 32 MiB) tracked the repetition times worst
// (correlation 0.2-0.3). Integer compute tracked them best (0.7), and
// branchy updates of a cache-resident table in between. The probe below
// runs those two, about 100 ms in all. Scaling by it cut the spread of
// repetition times from 20% to 11%. Raw times stay in the report and
// the -out record.

const (
	probeTable = 64 << 10 // words: a 512 KiB table, resident in the host's caches
	probeSteps = 4 << 20  // table updates; the compute phase runs twice as many rounds
	// probeRef is the probe's typical duration on the reference host
	// (2-vCPU Xeon, Go 1.24).
	probeRef = 100 * time.Millisecond
)

var probeBuf = make([]uint64, probeTable)

// probeHost runs the probe task and returns its duration.
func probeHost() time.Duration {
	x := uint64(0x9e3779b97f4a7c15)
	t := time.Now()
	for range probeSteps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (probeTable - 1)
		if probeBuf[j]&1 == 0 {
			probeBuf[j] += x >> 3
		} else {
			probeBuf[j] ^= x
		}
	}
	for range 2 * probeSteps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%7 == 3 {
			x += 11
		}
	}
	d := time.Since(t)
	sink += int(x & 1)
	return d
}
