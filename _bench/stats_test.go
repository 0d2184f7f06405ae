package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 1000, 2}, 10},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input")
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// 1000 values 1..1000: nearest rank puts p90 at 900.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 90); got != 900 {
		t.Errorf("p90 of 1..1000 = %v, want 900", got)
	}
	if got := percentile([]float64{42}, 90); got != 42 {
		t.Errorf("p90 of one value = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}
