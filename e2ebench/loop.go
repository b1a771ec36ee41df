package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// clock is the benchmark's monotonic clock: nanoseconds since the run
// began, never 0 (0 marks "not yet" in write histories).
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) + 1 }

// sleepUntil blocks until the clock reads t.
func (c clock) sleepUntil(t int64) {
	if d := time.Duration(t - c.now()); d > 0 {
		time.Sleep(d)
	}
}

// outcome tallies the operations of the measure window. Operations
// outside it (warm-up) are verified too but not counted. Once closed,
// late completions are ignored: whatever was outstanding at close was
// already counted as failed.
type outcome struct {
	mu        sync.Mutex
	closed    bool
	attempted int
	completed int
	failed    int
	wrong     int
	outstand  int
	lat       []float64 // ms, per completed operation
	late      []float64 // µs, open-loop generator lateness
	firstErrs []string
}

// start counts a measured operation as attempted and outstanding.
func (o *outcome) start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.closed {
		o.attempted++
		o.outstand++
	}
}

// done resolves a measured operation: err nil is a verified success
// with latency latNS; wrong marks a result that failed verification
// (counted as failed too).
func (o *outcome) done(latNS int64, err error, wrong bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	o.outstand--
	if err != nil {
		o.failed++
		if wrong {
			o.wrong++
		}
		if len(o.firstErrs) < 5 {
			o.firstErrs = append(o.firstErrs, err.Error())
		}
		return
	}
	o.completed++
	o.lat = append(o.lat, float64(latNS)/1e6)
}

// wrongResult records a verification failure of an operation outside
// the window; it still makes the run incorrect.
func (o *outcome) wrongResult(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wrong++
	if len(o.firstErrs) < 5 {
		o.firstErrs = append(o.firstErrs, err.Error())
	}
}

func (o *outcome) lateness(ns int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.closed {
		o.late = append(o.late, float64(ns)/1e3)
	}
}

// pending returns how many measured operations are still outstanding.
func (o *outcome) pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.outstand
}

// close ends the window: every operation still outstanding has failed.
func (o *outcome) close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	if o.outstand > 0 {
		o.failed += o.outstand
		if len(o.firstErrs) < 5 {
			o.firstErrs = append(o.firstErrs, fmt.Sprintf("%d operations still outstanding after the drain", o.outstand))
		}
	}
	o.closed = true
	sort.Float64s(o.lat)
}

// merge adds a closed segment's tallies to o.
func (o *outcome) merge(seg *outcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += seg.attempted
	o.completed += seg.completed
	o.failed += seg.failed
	o.wrong += seg.wrong
	o.lat = append(o.lat, seg.lat...)
	o.late = append(o.late, seg.late...)
	sort.Float64s(o.lat)
	for _, e := range seg.firstErrs {
		if len(o.firstErrs) < 5 {
			o.firstErrs = append(o.firstErrs, e)
		}
	}
}

// verified fails when any answer failed verification.
func (o *outcome) verified() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.wrong > 0 {
		return fmt.Errorf("%d wrong answers, first: %v", o.wrong, o.firstErrs)
	}
	return nil
}

// drain waits up to limit for the window's outstanding operations, then
// closes the outcome.
func (o *outcome) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for o.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	o.close()
}

// arrivals is a seeded Poisson process: the due times (benchmark clock)
// of an open-loop generator running at rate per second from start.
type arrivals struct {
	rng  *rand.Rand
	rate float64
	next float64
}

func newArrivals(seed int64, rate float64, start int64) *arrivals {
	return &arrivals{rng: rand.New(rand.NewSource(seed)), rate: rate, next: float64(start)}
}

// due returns the next arrival time.
func (a *arrivals) due() int64 {
	a.next += a.rng.ExpFloat64() / a.rate * 1e9
	return int64(a.next)
}

// window is the phase boundaries of one load run on the benchmark clock.
type window struct {
	start, measure, end int64 // warm-up begins, measure window begins, ends
}

func (w window) contains(t int64) bool { return t >= w.measure && t < w.end }

func (w window) seconds() float64 { return float64(w.end-w.measure) / 1e9 }
