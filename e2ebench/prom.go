package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one Prometheus text exposition: series ("name{labels}") to
// value.
type scrape map[string]float64

// parseProm reads the text format the servers' /metrics serves.
func parseProm(b []byte) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// metricName splits a series into its metric name and label block.
func metricName(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// label returns the value of label key in a label block.
func label(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// sum adds every series of metric name whose labels pass keep (nil
// keeps all).
func (s scrape) sum(name string, keep func(labels string) bool) float64 {
	total := 0.0
	for series, v := range s {
		if n, labels := metricName(series); n == name && (keep == nil || keep(labels)) {
			total += v
		}
	}
	return total
}

// delta is after − before for a counter summed over its series.
func delta(before, after scrape, name string) float64 {
	return after.sum(name, nil) - before.sum(name, nil)
}

// actorBusy returns, per actor whose name starts with prefix, the share
// of the window its invocations were busy, from the
// eactors_actor_invoke_ns_total delta; the largest share is the serial
// bottleneck among the instances.
func actorBusy(before, after scrape, prefix string, windowNS float64) float64 {
	busiest := 0.0
	for series, v := range after {
		name, labels := metricName(series)
		if name != "eactors_actor_invoke_ns_total" || !strings.HasPrefix(label(labels, "actor"), prefix) {
			continue
		}
		busiest = math.Max(busiest, ratio(v-before[series], windowNS))
	}
	return busiest
}

// histQuantile estimates the q-quantile of the observations a
// cumulative histogram (base_bucket{le=...}, summed over its other
// labels) gained between two scrapes, interpolating linearly inside the
// bucket. It returns the estimate and the observation count.
func histQuantile(before, after scrape, base string, q float64) (float64, float64) {
	cum := map[float64]float64{}
	for series, v := range after {
		name, labels := metricName(series)
		if name != base+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(label(labels, "le"), 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		cum[le] += v - before[series]
	}
	edges := make([]float64, 0, len(cum))
	for le := range cum {
		edges = append(edges, le)
	}
	sort.Float64s(edges)
	if len(edges) == 0 || cum[edges[len(edges)-1]] <= 0 {
		return 0, 0
	}
	total := cum[edges[len(edges)-1]]
	rank := q * total
	lower, below := 0.0, 0.0
	for _, le := range edges {
		c := cum[le]
		if c >= rank && c > below {
			if math.IsInf(le, 1) {
				return lower, total // open top bucket: its lower edge is all we know
			}
			return lower + (le-lower)*(rank-below)/(c-below), total
		}
		lower, below = le, c
	}
	return lower, total
}
