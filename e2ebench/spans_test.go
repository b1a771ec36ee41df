package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	span := func(id, parent uint64, ts, dur float64) tspan {
		return tspan{TS: ts, Dur: dur, Args: spanIDs{Trace: 1, Span: id, Parent: parent}}
	}
	spans := []tspan{
		span(1, 0, 0, 100), // parent [0,100]
		span(2, 1, 10, 30), // [10,40]
		span(3, 1, 30, 30), // [30,60], overlaps span 2
		span(4, 1, 90, 30), // [90,120], runs past the parent
		span(5, 3, 35, 10), // grandchild: covered by span 3, not the parent
		{TS: 0, Dur: 50, Args: spanIDs{Trace: 2, Span: 2, Parent: 0}}, // same span id, other trace
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of 100.
	for i, want := range []float64{40, 30, 20, 30, 10, 50} {
		if self[i] != want {
			t.Errorf("span %d self = %v, want %v", i, self[i], want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	if got := unionLen([][2]float64{{5, 8}, {0, 2}, {1, 3}, {7, 9}}); got != 7 {
		t.Errorf("union = %v, want 7", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("empty union = %v", got)
	}
}
