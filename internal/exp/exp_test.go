package exp

import (
	"strings"
	"testing"

	"compactrouting/internal/faultsim"
)

func smallGeo(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv("geometric", 90, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTable1Runs(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, smallGeo(t), 0.25, 100, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Thm 1.4", "Thm 1.1", "full-table"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Runs(t *testing.T) {
	var sb strings.Builder
	if err := Table2(&sb, smallGeo(t), 0.25, 100, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 2", "Thm 1.2", "single-tree", "logD family"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Runs(t *testing.T) {
	var sb strings.Builder
	if err := Fig1(&sb, smallGeo(t), 0.25, 150, 1); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "Eqn (4) violations: 0") {
		t.Fatalf("Eqn 4 violations reported:\n%s", sb.String())
	}
}

// TestExperimentsReportBuiltEps runs the experiments at an ε above the
// registry caps: each must report the ε its schemes were built at (the
// bench and chaos records per scheme), and Fig1's Eqn (4) bound must
// hold at that ε.
func TestExperimentsReportBuiltEps(t *testing.T) {
	e := smallGeo(t)
	cases := []struct {
		name string
		run  func(*strings.Builder) error
		want []string
	}{
		{"fig1", func(sb *strings.Builder) error { return Fig1(sb, e, 0.5, 150, 1) },
			[]string{"eps=0.3333333333333333,", "Eqn (4) violations: 0"}},
		{"fig2", func(sb *strings.Builder) error { return Fig2(sb, e, 0.5, 150, 1) },
			[]string{"eps=0.25,"}},
		{"table1", func(sb *strings.Builder) error { return Table1(sb, e, 0.5, 100, 1) },
			[]string{"Thm 1.4 (simple) [eps=0.3333333333333333]", "Thm 1.1 (scale-free) [eps=0.25]"}},
		{"table2", func(sb *strings.Builder) error { return Table2(sb, e, 0.4, 100, 1) },
			[]string{"simple labeled (logD family)  ", "Thm 1.2 (scale-free) [eps=0.25]"}},
	}
	caps := map[string]float64{"simple-labeled": 0.5, "scale-free-labeled": 0.25,
		"name-independent": 1.0 / 3, "scale-free-name-independent": 0.25, "full-table": 0.6, "single-tree": 0.6}
	recs, err := Bench(e, BenchOpts{Eps: 0.6, Pairs: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Eps != caps[r.Scheme] {
			t.Errorf("bench record %s: eps %v, want %v", r.Scheme, r.Eps, caps[r.Scheme])
		}
	}
	chaos, err := ChaosSweep(e, ChaosConfig{LossRates: []float64{0}, FailFracs: []float64{0}, Rel: faultsim.DefaultReliability, HopLatency: 1}, 0.6, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range chaos {
		if r.Eps != caps[r.Scheme] {
			t.Errorf("chaos record %s: eps %v, want %v", r.Scheme, r.Eps, caps[r.Scheme])
		}
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := c.run(&sb); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, sb.String())
		}
		for _, want := range c.want {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("%s: output missing %q:\n%s", c.name, want, sb.String())
			}
		}
		// The figures build one scheme: their header names its ε. The
		// tables print the request and mark each clamped row instead.
		if strings.HasPrefix(c.name, "fig") && strings.Contains(sb.String(), "eps=0.5,") {
			t.Errorf("%s: header prints the requested eps 0.5:\n%s", c.name, sb.String())
		}
	}
}

func TestFig2Runs(t *testing.T) {
	var sb strings.Builder
	if err := Fig2(&sb, smallGeo(t), 0.25, 150, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Claim 4.6") {
		t.Fatalf("missing Claim 4.6 column:\n%s", sb.String())
	}
}

func TestFig2PhaseBOnExponentialPath(t *testing.T) {
	// Phase B of Algorithm 5 only fires on metrics with empty annuli
	// (levels missing from R(u)); the exponential path is the canonical
	// case. Every handed-off route must satisfy the Claim 4.6 window.
	e, err := NewEnv("exp-path", 64, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Fig2(&sb, e, 0.25, 2000, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 9 && line[0] >= '0' && line[0] <= '9' {
			rows++
			holds := fields[len(fields)-1] // "k/n"
			parts := strings.Split(holds, "/")
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Fatalf("Claim 4.6 violated in row %q", line)
			}
		}
	}
	if rows == 0 {
		t.Fatalf("no phase-B rows on the exponential path:\n%s", out)
	}
}

func TestFig3Runs(t *testing.T) {
	var sb strings.Builder
	if err := Fig3(&sb, 200, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"minimum at b=2.000: 9.0000", "Thm 1.4 scheme on the tree", "counterexample tree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestStorageRuns(t *testing.T) {
	var sb strings.Builder
	if err := Storage(&sb, []int{32, 64}, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Storage scaling") {
		t.Fatalf("bad output:\n%s", sb.String())
	}
}

func TestEpsilonRuns(t *testing.T) {
	var sb strings.Builder
	if err := Epsilon(&sb, smallGeo(t), 100, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nameind scale-free") {
		t.Fatalf("bad output:\n%s", sb.String())
	}
}

func TestAblationRuns(t *testing.T) {
	var sb strings.Builder
	if err := Ablation(&sb, smallGeo(t), 100, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ring radius factor", "Property 2", "heavy-first", "search-tree eps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestOverheadRuns(t *testing.T) {
	var sb strings.Builder
	if err := Overhead(&sb, smallGeo(t), 0.25, 150, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Price of name independence") {
		t.Fatalf("bad output:\n%s", sb.String())
	}
}

func TestDimensionRuns(t *testing.T) {
	var sb strings.Builder
	if err := Dimension(&sb, 0.25, 150, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Doubling-dimension sweep") {
		t.Fatalf("bad output:\n%s", sb.String())
	}
}

func TestOracleSweepRuns(t *testing.T) {
	var sb strings.Builder
	if err := OracleSweep(&sb, smallGeo(t), 200, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TZ oracle k=3") {
		t.Fatalf("bad output:\n%s", sb.String())
	}
}
