package rnet

import (
	"fmt"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/gate"
)

// TestHierarchyParallelEquivalence: NewHierarchy parallelizes the Net
// seed prefilter and the zoomParent scans; the hierarchy must be the
// same at every GOMAXPROCS. EncodeHierarchy writes the elected levels;
// the lookup structures it leaves to the decoder (positions, max levels,
// zoom parents) are compared as extras.
func TestHierarchyParallelEquivalence(t *testing.T) {
	a := geoAPSP(t, 120, 5)
	gate.Same(t, func() []byte {
		h := NewHierarchy(a, 0)
		var w bits.Writer
		EncodeHierarchy(&w, h)
		return fmt.Appendf(w.Bytes(), "\npos %v\nmax levels %v\nzoom parents %v", h.pos, h.maxLevel, h.zoomParent)
	})
}
