package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects request latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// series is a sample of request latencies, in milliseconds, with the
// times the requests started.
type series struct {
	ms []float64
	at []time.Time
}

func (s *series) add(start time.Time, d time.Duration) {
	s.ms = append(s.ms, ms(d))
	s.at = append(s.at, start)
}

// minSegmentSamples is the fewest samples a segment's median is taken
// over.
const minSegmentSamples = 20

// segmentMedian is the median over the segments [bounds[i],
// bounds[i+1]) of the median of the samples taken in each, counting
// only segments with at least minSegmentSamples samples; with none,
// the median of the whole sample. A burst of host load that slows
// part of the window moves it by at most the rank of the segments it
// covers, where the plain median moves with every slowed sample.
func segmentMedian(s series, bounds []time.Time) (float64, int) {
	var meds []float64
	for i := 0; i+1 < len(bounds); i++ {
		var seg []float64
		for k, t := range s.at {
			if !t.Before(bounds[i]) && t.Before(bounds[i+1]) {
				seg = append(seg, s.ms[k])
			}
		}
		if len(seg) >= minSegmentSamples {
			meds = append(meds, median(seg))
		}
	}
	if len(meds) == 0 {
		return median(s.ms), 0
	}
	return median(meds), len(meds)
}

// spreadOf summarizes a sample for the report: its size and quantiles.
func spreadOf(xs []float64) map[string]float64 {
	return map[string]float64{
		"n": float64(len(xs)), "p10": quantile(xs, 0.1), "p50": quantile(xs, 0.5), "p90": quantile(xs, 0.9),
		"p99": quantile(xs, 0.99), "p999": quantile(xs, 0.999), "max": quantile(xs, 1),
	}
}
