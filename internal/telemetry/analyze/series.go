package analyze

import (
	"time"

	"l2fuzz/internal/record"
)

// Point is one cumulative reading: Value as of offset At.
type Point struct {
	At    time.Duration
	Value int
}

// Series is one cumulative coverage curve. Points are monotone in both
// coordinates and always start at (0, 0): the curve is a step function
// that jumps at each fold.
type Series struct {
	Name   string
	Points []Point
}

// Final is the curve's last value — the run total.
func (s Series) Final() int {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Value
}

// ValueAt evaluates the step function at offset t (the last point at
// or before t).
func (s Series) ValueAt(t time.Duration) int {
	v := 0
	for _, p := range s.Points {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}

// The coverage series names, in figure order.
const (
	SeriesPackets   = "packets"
	SeriesMalformed = "malformed"
	SeriesStates    = "states"
	SeriesFindings  = "findings"
)

// Coverage is the paper's coverage-over-time figure: the four
// cumulative curves of one run on a shared time axis.
type Coverage struct {
	// Duration is the run's observed wall extent; every point's At is
	// within [0, Duration].
	Duration time.Duration
	// Interval is the journal's counter-sample period when the header
	// declared it — the honest x-axis resolution label for the sampled
	// series. Zero means unknown.
	Interval time.Duration
	// Series holds the packets, malformed, states and findings curves,
	// in that order.
	Series []Series
}

// ByName returns the named curve, or a zero Series.
func (c Coverage) ByName(name string) Series {
	for _, s := range c.Series {
		if s.Name == name {
			return s
		}
	}
	return Series{}
}

// Coverage folds the run's job results — in journal order, which is
// the farm's fold order — into the cumulative curves. Malformed packets
// and visited states fold through record.Summary.Merge, the function
// the farm aggregator folds job summaries with, so both sides count the
// same union; failed jobs contribute nothing, and findings count
// distinct (state, port, error-class) signatures. The final point of
// each curve therefore equals the replayed report's TotalPackets,
// Metrics.Malformed, Metrics.StatesCovered and len(Findings) — the
// exactness the package tests pin.
func (r *Run) Coverage() Coverage {
	series := []Series{
		{Name: SeriesPackets, Points: []Point{{}}},
		{Name: SeriesMalformed, Points: []Point{{}}},
		{Name: SeriesStates, Points: []Point{{}}},
		{Name: SeriesFindings, Points: []Point{{}}},
	}
	var merged record.Summary
	sigs := make(map[Signature]bool)
	packets := 0
	for _, jd := range r.Jobs {
		if jd.Failed() {
			continue
		}
		packets += jd.PacketsSent
		merged = merged.Merge(jd.Summary)
		for _, occ := range jd.Findings {
			sigs[occ.Finding] = true
		}
		for i, v := range []int{packets, merged.Malformed, merged.StatesCovered, len(sigs)} {
			series[i].Points = append(series[i].Points, Point{At: jd.At, Value: v})
		}
	}
	return Coverage{Duration: r.Duration, Interval: r.Header.SampleInterval, Series: series}
}
