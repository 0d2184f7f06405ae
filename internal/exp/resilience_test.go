package exp

import (
	"bytes"
	"strings"
	"testing"

	"compactrouting/internal/faultsim"
)

func smallChaosConfig() ChaosConfig {
	return ChaosConfig{
		LossRates:  []float64{0, 0.1},
		FailFracs:  []float64{0, 0.1},
		Rel:        faultsim.DefaultReliability,
		HopLatency: 1,
	}
}

// TestChaosSweepInvariants checks the properties BENCH_chaossim.json is
// trusted for: the fault-free cell delivers everything at stretch
// parity, and on every cell the retry layer's delivery rate is at least
// the single-shot rate (guaranteed structurally: attempt 0 shares its
// fault draws with the unretried run).
func TestChaosSweepInvariants(t *testing.T) {
	e, err := NewEnv("geometric", 48, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	records, err := ChaosSweep(e, smallChaosConfig(), 0.25, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5*4 { // 5 schemes x (2 loss x 2 fail)
		t.Fatalf("got %d records, want 20", len(records))
	}
	for _, r := range records {
		if r.RateRetry < r.RateNoRetry {
			t.Errorf("%s loss=%v fail=%v: retry rate %.3f below no-retry %.3f",
				r.Scheme, r.Loss, r.EdgeFailFrac, r.RateRetry, r.RateNoRetry)
		}
		if r.Loss == 0 && r.EdgeFailFrac == 0 {
			if r.RateRetry != 1 || r.RateNoRetry != 1 {
				t.Errorf("%s: fault-free cell did not deliver everything: %+v", r.Scheme, r)
			}
			if r.StretchDegradation != 1 {
				t.Errorf("%s: fault-free degradation %.3f, want 1", r.Scheme, r.StretchDegradation)
			}
		}
		if r.MeanAttempts < 1 {
			t.Errorf("%s: mean attempts %.3f < 1", r.Scheme, r.MeanAttempts)
		}
	}
}

// TestChaosJSONDeterministic is the make-check property at unit scope:
// two sweeps from the same seed serialize byte-identically.
func TestChaosJSONDeterministic(t *testing.T) {
	e, err := NewEnv("geometric", 40, 9, "")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteChaosJSON(&a, e, smallChaosConfig(), 0.25, 50, 9); err != nil {
		t.Fatal(err)
	}
	if err := WriteChaosJSON(&b, e, smallChaosConfig(), 0.25, 50, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two chaos sweeps from the same seed differ")
	}
	if !strings.Contains(a.String(), "delivery_rate_retry") {
		t.Fatalf("JSON missing expected fields:\n%s", a.String()[:200])
	}
}

func TestResilienceTableRuns(t *testing.T) {
	e, err := NewEnv("geometric", 40, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Resilience(&sb, e, smallChaosConfig(), 0.25, 50, 7); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Resilience", "full-table", "name-independent", "delivered (retry)", "degradation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
