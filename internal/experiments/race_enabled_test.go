//go:build race

package experiments

// raceEnabled reports whether this test binary was built with the race
// detector. The heavyweight sweeps slow down by an order of magnitude
// under instrumentation, so the slowest determinism cells are skipped
// there; the light cells still exercise every grid call shape.
const raceEnabled = true
