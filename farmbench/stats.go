package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a metric's distribution over a run's samples.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
