package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample count cannot carry.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and the number of samples strictly beyond that
// rank. It fails when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, int, error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples: %w", q*100, errTooFewSamples)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond := n - 1 - rank
	if q > 0.5 && beyond < minBeyond {
		return sorted[rank], beyond, fmt.Errorf("p%g of %d samples leaves %d beyond, need %d: %w",
			q*100, n, beyond, minBeyond, errTooFewSamples)
	}
	return sorted[rank], beyond, nil
}

// quantile is percentile without the tail rule, for diagnostic figures
// (sampled trace spans, replay timings) that are reported with their
// sample count and never gated. It returns 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	v, _, _ := percentile(s, q)
	return v
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
