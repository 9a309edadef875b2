package main

import (
	"testing"
	"time"
)

// A burst that slows one segment of three moves the segment median
// by one rank, not by its share of the samples.
func TestSegmentMedianBurst(t *testing.T) {
	t0 := time.Unix(0, 0)
	var s series
	for seg, v := range []float64{1.0, 1.1, 5.0} {
		for i := 0; i < minSegmentSamples; i++ {
			s.add(t0.Add(time.Duration(seg)*time.Second+time.Duration(i)*time.Millisecond), time.Duration(v*float64(time.Millisecond)))
		}
	}
	bounds := []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second), t0.Add(3 * time.Second)}
	got, n := segmentMedian(s, bounds)
	if n != 3 || got != 1.1 {
		t.Fatalf("segmentMedian = %v over %d segments, want 1.1 over 3", got, n)
	}
	// Samples past the last bound and thin segments are left out; with
	// no segment left it is the median of the whole sample.
	if got, n := segmentMedian(s, []time.Time{t0, t0.Add(time.Millisecond)}); n != 0 || got != median(s.ms) {
		t.Fatalf("thin segment: %v over %d segments, want the whole median %v", got, n, median(s.ms))
	}
}
