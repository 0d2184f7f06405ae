package dist

import (
	"fmt"
	"testing"

	"compactrouting/internal/bits"
	"compactrouting/internal/gate"
)

// TestBuildTreeParallelEquivalence: the engine runs Begin/Recv/Flush
// over the shared worker pool but delivers serially in sender-id order,
// so a build — parents, node info and every counter — must be the same
// at every GOMAXPROCS.
func TestBuildTreeParallelEquivalence(t *testing.T) {
	g := geo(t, 96, 11)
	gate.Same(t, func() []byte {
		res, err := BuildTree(g, 0, Config{})
		if err != nil {
			t.Fatalf("BuildTree: %v", err)
		}
		var w bits.Writer
		for v, info := range res.Info {
			for _, x := range []int32{int32(res.Parent[v]), info.In, info.Out, info.Parent, info.Heavy, info.HeavyIn, info.HeavyOut} {
				w.WriteUvarint(uint64(uint32(x)))
			}
			info.Label.Encode(&w)
		}
		return fmt.Appendf(w.Bytes(), "\ncounters %+v", res.Counters)
	})
}

// TestBuildSimpleParallelEquivalence: same contract for the full
// distributed Simple construction: the encoded tables, the labels, the
// elected levels and the counters.
func TestBuildSimpleParallelEquivalence(t *testing.T) {
	g := geo(t, 96, 11)
	gate.Same(t, func() []byte {
		res, err := BuildSimple(g, 0.25, Config{})
		if err != nil {
			t.Fatalf("BuildSimple: %v", err)
		}
		var w bits.Writer
		for v, tbl := range res.Tables {
			w.WriteBlob(tbl, res.TableBits[v])
		}
		for _, l := range res.Labels {
			w.WriteUvarint(uint64(l))
		}
		return fmt.Appendf(w.Bytes(), "\nn %d eps %v ring factor %v base %v top level %d levels %v\ncounters %+v",
			res.N, res.Eps, res.RingFactor, res.Base, res.TopLevel, res.Levels, res.Counters)
	})
}
