//go:build !race

// Package racetest tells tests whether the race detector instruments
// the build, so they can shrink inputs that it would make too slow.
package racetest

// Enabled reports whether the race detector instruments this build;
// see race_on.go.
const Enabled = false
