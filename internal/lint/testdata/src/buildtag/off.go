//go:build !race

// Package buildtag exercises the loader's build-constraint filter.
package buildtag

// Enabled is declared once per build; see on.go.
const Enabled = false
