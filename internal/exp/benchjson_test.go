package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchTraceAgrees runs the bench sweep untraced and traced: both
// evaluate the same Step walks, so -trace may add the per-phase
// decomposition and must change no other field, for every registry
// entry. The one exception is full-table's max_header_bits: its
// RouteToLabel deliberately charges a fixed-width ⌈log n⌉-bit id where
// the traced walk reports the prepared header's varint size
// (TestRouteToLabelMatchesFrozenLoop pins the fixed width).
func TestBenchTraceAgrees(t *testing.T) {
	e, err := NewEnv("geometric", 128, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Bench(e, BenchOpts{Eps: 0.25, Pairs: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Bench(e, BenchOpts{Eps: 0.25, Pairs: 400, Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("%d untraced records, %d traced", len(plain), len(traced))
	}
	for i, p := range plain {
		tr := traced[i]
		if len(tr.Phases) == 0 || p.Phases != nil {
			t.Fatalf("%s: traced phases %v, untraced phases %v", p.Scheme, tr.Phases, p.Phases)
		}
		tr.Phases = nil
		if p.Scheme == "full-table" {
			tr.MaxHeaderBits = p.MaxHeaderBits
		}
		if !reflect.DeepEqual(p, tr) {
			t.Errorf("%s: untraced record %+v\ntraced record %+v", p.Scheme, p, tr)
		}
	}
}

// TestBenchRoutebenchJSONIsCurrent re-runs the sweep BENCH_routebench.json
// was written by (`routebench -json`, all flags at their defaults) with
// timing off, and compares every non-timing field with the committed
// records: a change that moves a number must regenerate the file
// (`make bench`).
func TestBenchRoutebenchJSONIsCurrent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_routebench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed []BenchRecord
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	e, err := NewEnv("geometric", 256, 1, "dense")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Bench(e, BenchOpts{Eps: 0.25, Pairs: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(committed) {
		t.Fatalf("sweep has %d records, BENCH_routebench.json %d: run make bench", len(fresh), len(committed))
	}
	for i, c := range committed {
		c.ApspMS, c.BuildMS, c.TotalMS, c.NsPerQuery = 0, 0, 0, 0
		if !reflect.DeepEqual(c, fresh[i]) {
			t.Errorf("BENCH_routebench.json is stale (run make bench): committed %+v\nsweep %+v", c, fresh[i])
		}
	}
}
