package server

import (
	"fmt"
	"testing"

	"compactrouting/internal/gate"
)

// TestEngineParallelBuildEquivalence: the engine compiles its scheme set
// with a parallel fan-out; its snapshot and everything it reports about
// the compiled schemes (bit accounting, order) must be the same at
// every GOMAXPROCS. BuildMillis is wall clock and is left out.
func TestEngineParallelBuildEquivalence(t *testing.T) {
	gate.Same(t, func() []byte {
		eng := newTestEngine(t, SchemeNames, 0)
		f, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range eng.Schemes() {
			info.BuildMillis = 0
			out = fmt.Appendf(out, "\n%+v", info)
		}
		return out
	})
}
