package metrics

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMergeCountersAndRatios(t *testing.T) {
	a := Summary{
		Transmitted: 100, Malformed: 70, InvalidTx: 2,
		Received: 80, Rejections: 20,
		Span:   2 * time.Second,
		States: []string{"CLOSED", "OPEN", "WAIT_CONNECT"}, StatesCovered: 3,
	}
	b := Summary{
		Transmitted: 300, Malformed: 30, InvalidTx: 1,
		Received: 120, Rejections: 80,
		Span:   6 * time.Second,
		States: []string{"CLOSED", "WAIT_CONFIG"}, StatesCovered: 2,
	}
	m := a.Merge(b)

	if m.Transmitted != 400 || m.Malformed != 100 || m.InvalidTx != 3 {
		t.Errorf("tx counters = %d/%d/%d, want 400/100/3", m.Transmitted, m.Malformed, m.InvalidTx)
	}
	if m.Received != 200 || m.Rejections != 100 {
		t.Errorf("rx counters = %d/%d, want 200/100", m.Received, m.Rejections)
	}
	if want := 100.0 / 400.0; math.Abs(m.MPRatio-want) > 1e-12 {
		t.Errorf("MPRatio = %v, want %v", m.MPRatio, want)
	}
	if want := 100.0 / 200.0; math.Abs(m.PRRatio-want) > 1e-12 {
		t.Errorf("PRRatio = %v, want %v", m.PRRatio, want)
	}
	if want := (100.0 / 400.0) * 0.5; math.Abs(m.MutationEfficiency-want) > 1e-12 {
		t.Errorf("MutationEfficiency = %v, want %v", m.MutationEfficiency, want)
	}
	if m.Span != 8*time.Second {
		t.Errorf("Span = %v, want 8s", m.Span)
	}
	if want := 400.0 / 8.0; math.Abs(m.PacketsPerSecond-want) > 1e-12 {
		t.Errorf("PacketsPerSecond = %v, want %v", m.PacketsPerSecond, want)
	}
	wantStates := []string{"CLOSED", "OPEN", "WAIT_CONFIG", "WAIT_CONNECT"}
	if !reflect.DeepEqual(m.States, wantStates) {
		t.Errorf("States = %v, want the exact union %v", m.States, wantStates)
	}
	if m.StatesCovered != 4 {
		t.Errorf("StatesCovered = %d, want the exact union size 4", m.StatesCovered)
	}

	// Folding more than two parts recomputes the rate from the merged
	// span as well: 60 packets over 4s is 15/s.
	three := Summary{Transmitted: 10, Span: time.Second}.
		Merge(Summary{Transmitted: 20, Span: time.Second}).
		Merge(Summary{Transmitted: 30, Span: 2 * time.Second})
	if three.Transmitted != 60 || three.Span != 4*time.Second {
		t.Errorf("three-way fold = %+v, want Transmitted 60 over 4s", three)
	}
	if math.Abs(three.PacketsPerSecond-15) > 1e-12 {
		t.Errorf("three-way PacketsPerSecond = %v, want 15", three.PacketsPerSecond)
	}
}

// TestMergeUnionsOverlappingStateSetsExactly pins the exact-union
// semantics: overlapping sets must merge to their union, not to the
// larger count, in either merge order.
func TestMergeUnionsOverlappingStateSetsExactly(t *testing.T) {
	a := Summary{States: []string{"CLOSED", "OPEN", "WAIT_CONFIG"}, StatesCovered: 3}
	b := Summary{States: []string{"OPEN", "WAIT_CONNECT", "WAIT_DISCONNECT"}, StatesCovered: 3}
	want := []string{"CLOSED", "OPEN", "WAIT_CONFIG", "WAIT_CONNECT", "WAIT_DISCONNECT"}

	for _, m := range []Summary{a.Merge(b), b.Merge(a)} {
		if !reflect.DeepEqual(m.States, want) {
			t.Errorf("union = %v, want %v", m.States, want)
		}
		if m.StatesCovered != len(want) {
			t.Errorf("StatesCovered = %d, want %d", m.StatesCovered, len(want))
		}
	}
}

func TestMergeZeroIsIdentity(t *testing.T) {
	// Build a with Merge itself so its derived fields carry the exact
	// floating-point values a further merge would recompute.
	a := Summary{
		Transmitted: 100, Malformed: 70, Received: 80, Rejections: 20,
		Span:   2 * time.Second,
		States: []string{"CLOSED", "OPEN"}, StatesCovered: 2,
	}.Merge(Summary{})
	got := a.Merge(Summary{})
	if !reflect.DeepEqual(got, a) {
		t.Errorf("a.Merge(zero) = %+v, want %+v", got, a)
	}
	got = Summary{}.Merge(a)
	if !reflect.DeepEqual(got, a) {
		t.Errorf("zero.Merge(a) = %+v, want %+v", got, a)
	}
}

// TestMergeAssociative: splitting one logical experiment into three
// summaries must merge to the same result however the folds associate.
func TestMergeAssociative(t *testing.T) {
	a := Summary{Transmitted: 7, Malformed: 3, Received: 5, Rejections: 1, Span: time.Second,
		States: []string{"CLOSED", "OPEN"}, StatesCovered: 2}
	b := Summary{Transmitted: 11, Malformed: 4, Received: 9, Rejections: 6, Span: 3 * time.Second,
		States: []string{"OPEN", "WAIT_CONFIG", "WAIT_CONNECT"}, StatesCovered: 3}
	c := Summary{Transmitted: 13, Malformed: 8, Received: 2, Rejections: 0, Span: 2 * time.Second,
		States: []string{"CLOSED", "WAIT_MOVE"}, StatesCovered: 2}
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge not associative:\n left = %+v\nright = %+v", left, right)
	}
}
