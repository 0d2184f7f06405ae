//go:build race

package racetest

// Enabled reports whether the race detector instruments this build.
// Tests use it to shrink inputs whose ~10× instrumentation cost would
// dominate the race gate.
const Enabled = true
