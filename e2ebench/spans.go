package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// tspan is one timed interval: the benchmark's own spans around its
// calls into a layer, or a server span pulled from /debug/traces.
// Spans of one request (or one server trace) share Trace; Parent names
// the span that caused this one (0 for a root). Times are microseconds.
type tspan struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args spanIDs `json:"args"`
}

type spanIDs struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
}

// spanLog collects the benchmark's own spans in memory; they are written
// out when the run ends. A nil *spanLog records nothing, which is how
// the untraced run skips it.
type spanLog struct {
	mu    sync.Mutex
	spans []tspan
}

// add records a span of category cat from start to end (nanoseconds on
// the benchmark clock) and returns its span id.
func (l *spanLog) add(name, cat string, trace, parent uint64, start, end int64) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, tspan{
		Name: name, Cat: cat, Ph: "X", PID: 2,
		TS: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
		Args: spanIDs{Trace: trace, Span: id, Parent: parent},
	})
	return id
}

// durations returns the durations (µs) of the spans named name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var d []float64
	for _, s := range l.spans {
		if s.Name == name {
			d = append(d, s.Dur)
		}
	}
	return d
}

// chromeTrace is the Chrome trace-event document /debug/traces serves.
type chromeTrace struct {
	TraceEvents []tspan `json:"traceEvents"`
}

func parseChrome(b []byte) ([]tspan, error) {
	var doc chromeTrace
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parse traces: %w", err)
	}
	return doc.TraceEvents, nil
}

// writeChromeGz writes spans as a gzipped Chrome trace-event document.
func writeChromeGz(path string, spans []tspan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(chromeTrace{TraceEvents: spans}); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once). The result is indexed like spans.
func selfTimes(spans []tspan) []float64 {
	type key struct{ trace, span uint64 }
	children := map[key][]int{}
	for i, s := range spans {
		if s.Args.Parent != 0 {
			k := key{s.Args.Trace, s.Args.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		start, end := s.TS, s.TS+s.Dur
		var iv [][2]float64
		for _, c := range children[key{s.Args.Trace, s.Args.Span}] {
			cs, ce := spans[c].TS, spans[c].TS+spans[c].Dur
			if cs < start {
				cs = start
			}
			if ce > end {
				ce = end
			}
			if ce > cs {
				iv = append(iv, [2]float64{cs, ce})
			}
		}
		self[i] = s.Dur - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curS, curE := 0.0, 0.0, 0.0
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}
