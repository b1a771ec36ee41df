package main

import (
	"errors"
	"testing"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(1000)
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
	} {
		got, beyond, err := percentile(s, c.q)
		if err != nil || got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g = %v (%d beyond, err %v), want %v (%d beyond)", c.q*100, got, beyond, err, c.want, c.wantBeyond)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples leave exactly 10 beyond p99; 999 leave 9.
	if _, _, err := percentile(ramp(1000), 0.99); err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if _, beyond, err := percentile(ramp(999), 0.99); !errors.Is(err, errTooFewSamples) || beyond != 9 {
		t.Fatalf("999 samples: beyond %d, err %v; want 9 and errTooFewSamples", beyond, err)
	}
	if _, _, err := percentile(nil, 0.5); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("no samples: err %v, want errTooFewSamples", err)
	}
	// The median carries no tail rule.
	if v, _, err := percentile(ramp(3), 0.5); err != nil || v != 2 {
		t.Fatalf("median of 3 = %v, %v", v, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}
