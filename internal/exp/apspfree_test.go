package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAPSPFreeRecordsBound checks that every E16 record says which ring
// factor it ran at and whether the stretch bound was asserted: at the
// default factor 1 it is not, at factor 2 every labeled row asserts it
// (and the sweep would fail on a route above it). The TZ rows have no
// rings and carry factor 0.
func TestAPSPFreeRecordsBound(t *testing.T) {
	for _, factor := range []float64{0, 2} {
		var buf bytes.Buffer
		opt := APSPFreeOpts{Sizes: []int{96}, Pairs: 300, Seed: 1, RingFactor: factor}
		if err := WriteAPSPFreeJSON(&buf, opt); err != nil {
			t.Fatalf("ring factor %v: %v", factor, err)
		}
		var raw []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 3 {
			t.Fatalf("ring factor %v: %d records, want lazy, dense and TZ", factor, len(raw))
		}
		wantFactor := factor
		if factor == 0 {
			wantFactor = 1
		}
		for _, rec := range raw {
			rf, ok1 := rec["ring_factor"].(float64)
			be, ok2 := rec["bound_enforced"].(bool)
			if !ok1 || !ok2 {
				t.Fatalf("record %v lacks ring_factor or bound_enforced", rec)
			}
			if rec["scheme"] != "simple-labeled" {
				if rf != 0 || be {
					t.Errorf("%v row: ring_factor %v, bound_enforced %v; want 0, false", rec["scheme"], rf, be)
				}
				continue
			}
			if rf != wantFactor || be != (wantFactor >= 2) {
				t.Errorf("%v row at factor %v: ring_factor %v, bound_enforced %v", rec["backend"], wantFactor, rf, be)
			}
		}
	}
}
