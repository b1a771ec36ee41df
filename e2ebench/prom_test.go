package main

import (
	"math"
	"os"
	"testing"
)

// The testdata scrapes were captured from kvserver -encrypt -metrics at
// the start and end of a kv-hot-open window.
func loadScrapes(t *testing.T) (scrape, scrape) {
	t.Helper()
	var s [2]scrape
	for i, name := range []string{"testdata/kvserver-scrape-before.txt", "testdata/kvserver-scrape-after.txt"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if s[i], err = parseProm(raw); err != nil {
			t.Fatal(err)
		}
	}
	return s[0], s[1]
}

func TestScrapeDelta(t *testing.T) {
	before, after := loadScrapes(t)
	if d := delta(before, after, "eactors_kv_gets_total"); d != 22741-3883 {
		t.Errorf("gets delta = %v, want %v", d, 22741-3883)
	}
	if got := actorBusy(before, after, "frontend", 1e9); math.Abs(got-0.071291855) > 1e-12 {
		t.Errorf("frontend busy share = %v, want 0.071291855", got)
	}
	if n, l := metricName(`eactors_actor_invoke_ns_total{actor="kvstore-2"}`); n != "eactors_actor_invoke_ns_total" || label(l, "actor") != "kvstore-2" {
		t.Errorf("metricName/label split = %q, %q", n, l)
	}
}

func TestHistogramQuantileFromScrapes(t *testing.T) {
	before, after := loadScrapes(t)
	// Window deltas of eactors_channel_seal_ns: 364 observations up to
	// 511 ns, 638 up to 1023 of 750. The median (rank 375) lies in
	// (511, 1023], 11/274 of the way up; buckets absent before the window
	// count as 0.
	got, n := histQuantile(before, after, "eactors_channel_seal_ns", 0.5)
	want := 511 + 512*11.0/274
	if n != 750 || math.Abs(got-want) > 1e-9 {
		t.Errorf("seal p50 = %v over %v, want %v over 750", got, n, want)
	}
	if _, n := histQuantile(before, after, "eactors_no_such_hist", 0.5); n != 0 {
		t.Errorf("missing histogram has %v observations", n)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	after := scrape{
		`h_bucket{le="1"}`:    0,
		`h_bucket{le="3"}`:    10,
		`h_bucket{le="7"}`:    30,
		`h_bucket{le="+Inf"}`: 30,
	}
	if got, _ := histQuantile(scrape{}, after, "h", 0.5); got != 4 {
		t.Errorf("p50 = %v, want 4", got)
	}
	// Everything in the open top bucket: only its lower edge is known.
	top := scrape{`h_bucket{le="7"}`: 0, `h_bucket{le="+Inf"}`: 5}
	if got, _ := histQuantile(scrape{}, top, "h", 0.99); got != 7 {
		t.Errorf("top-bucket p99 = %v, want 7", got)
	}
}
