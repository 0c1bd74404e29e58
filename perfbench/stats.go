package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place.  Nearest rank always returns an
// observed value, so p99 of 1000 samples is the 990th smallest and
// exactly ten samples lie beyond it.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	// The epsilon keeps float rounding (0.999*1000 = 999.0000000000001)
	// from pushing the rank one past the intended sample.
	rank := int(math.Ceil(p/100*float64(len(samples)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median returns the middle value of samples (the mean of the two middle
// values for an even count), sorting them in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// quartiles returns the three cut points dividing samples into quarters
// by the same rule as Python's statistics.quantiles(data, n=4) (its
// default "exclusive" method), so spreads computed here match the ones
// the benchmark's acceptance rule is stated in.  It needs two samples.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// validName reports whether name is a legal metric or workload name: it
// starts with a letter or digit and is at most 64 letters, digits, '_',
// '.' and '-'.
func validName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("metric name %q: length must be 1..64", name)
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("metric name %q must start with a letter or digit", name)
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return fmt.Errorf("metric name %q: illegal character %q", name, c)
		}
	}
	return nil
}
