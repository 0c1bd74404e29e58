package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	cases := []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}, {99.9, 999},
	}
	for _, c := range cases {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// p99 of 1000 samples leaves exactly ten beyond it.
	p99 := percentile(s, 99)
	beyond := 0
	for _, v := range s {
		if v > p99 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p99, want 10", beyond)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 7, 2}, 1.625, 3.5, 8.0},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3, 8, 7, 6, 9, 10, 11}, 3, 6, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestValidName(t *testing.T) {
	good := []string{"ok_per_s", "p99_us", "exec.ns_per_sim_insn.mips", "span.loadgen.op.self_us", "9lives", "a-b"}
	for _, n := range good {
		if err := validName(n); err != nil {
			t.Errorf("validName(%q) = %v", n, err)
		}
	}
	bad := []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a%", string(make([]byte, 65))}
	for _, n := range bad {
		if validName(n) == nil {
			t.Errorf("validName(%q) accepted an illegal name", n)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := validName(d.Name); err != nil {
			t.Error(err)
		}
	}
}
