package main

import (
	"math"
	"testing"
	"time"
)

// stretch is a window of n operations of latency lat each, run back to
// back.
func stretch(n int, lat time.Duration) window {
	var w window
	for i := 0; i < n; i++ {
		w.record(lat, true)
	}
	return w
}

func TestStretchTimingsIgnoreADisturbedStretch(t *testing.T) {
	var ws []window
	for i := 0; i < stretches; i++ {
		ws = append(ws, stretch(minGroup, time.Millisecond))
	}
	ws[3] = stretch(minGroup/10, 10*time.Millisecond)
	got := stretchTimings(ws)
	if got.p50 != 1 || got.p90 != 1 || got.opsPerSecond != 1000 {
		t.Errorf("timings = %+v, want p50 = p90 = 1 ms and 1000 ops/s", got)
	}
}

func TestStretchTimingsGroupShortStretches(t *testing.T) {
	// 10 stretches of 30 operations make groups of 4 stretches; the 2
	// left over join the last group. The groups are 120 operations at 1 ms
	// (p90 1 ms) and 120 at 1 ms with 60 at 2 ms (p90 2 ms).
	var ws []window
	for i := 0; i < stretches; i++ {
		lat := time.Millisecond
		if i >= 8 {
			lat = 2 * time.Millisecond
		}
		ws = append(ws, stretch(30, lat))
	}
	got := stretchTimings(ws)
	if got.p50 != 1 || got.p90 != 1.5 {
		t.Errorf("timings = %+v, want p50 1 ms, p90 1.5 ms", got)
	}
}

func TestTimingsScaleToTheReferenceHost(t *testing.T) {
	// 1 ms on a host twice as fast as the reference host is 2 ms there.
	got := timings{p50: 1, p90: 3, opsPerSecond: 1000}.scaled(2)
	if want := (timings{p50: 2, p90: 6, opsPerSecond: 500}); got != want {
		t.Errorf("scaled = %+v, want %+v", got, want)
	}
}

func TestServeTraceOverheadComparesMeanRequests(t *testing.T) {
	// Closed loops of equal length: the traced stretch completes half as
	// many requests in the same time, so each costs twice as much.
	ref := stretch(100, 10*time.Millisecond)
	traced := stretch(50, 20*time.Millisecond)
	m := map[string]float64{}
	traceOverhead(m, meanLatency(traced), meanLatency(ref))
	if got := m["trace.overhead_ratio"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("trace.overhead_ratio = %v, want 2", got)
	}
}
