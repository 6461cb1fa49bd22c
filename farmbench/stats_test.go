package main

import (
	"reflect"
	"testing"
	"time"
)

func TestLeastStolen(t *testing.T) {
	reps := func(shares ...float64) []rep {
		var out []rep
		for i, s := range shares {
			out = append(out, rep{farmSeed: int64(i + 1), steal: s})
		}
		return out
	}
	seeds := func(rs []rep) []int64 {
		var out []int64
		for _, r := range rs {
			out = append(out, r.farmSeed)
		}
		return out
	}
	for _, tc := range []struct {
		shares []float64
		want   []int64
	}{
		// No steal reported: every repetition counts.
		{[]float64{0, 0, 0, 0, 0, 0}, []int64{1, 2, 3, 4, 5, 6}},
		// The least-stolen half, in run order.
		{[]float64{0.3, 0.1, 0.2, 0.05, 0.4, 0.15}, []int64{2, 4, 6}},
		// Ties at the median share are all kept.
		{[]float64{0.1, 0, 0.2, 0, 0, 0.3}, []int64{2, 4, 5}},
		{[]float64{0, 0.1, 0, 0, 0.2}, []int64{1, 3, 4}},
	} {
		if got := seeds(leastStolen(reps(tc.shares...))); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("leastStolen(%v) kept farm seeds %v, want %v", tc.shares, got, tc.want)
		}
	}
}

func TestPerSeedWeighsSeedsEqually(t *testing.T) {
	ms := time.Millisecond
	// Farm seed 1 met four times, seed 2 once: a plain median over the
	// repetitions would read seed 1's value.
	reps := []rep{
		{farmSeed: 1, findings: 10 * ms}, {farmSeed: 1, findings: 12 * ms},
		{farmSeed: 1, findings: 11 * ms}, {farmSeed: 1, findings: 11 * ms},
		{farmSeed: 2, findings: 31 * ms},
	}
	got := perSeed(reps, func(r rep) float64 { return millis(r.findings) })
	if got.Median != 21 || got.N != 2 {
		t.Errorf("perSeed = %+v, want the mean of per-seed medians 11 and 31 (21) over 2 seeds", got)
	}
}
