//go:build race

package buildtag

// Enabled is declared once per build: the loader must type-check only
// the file whose constraint the build satisfies.
const Enabled = true
