package record

import "time"

// Summary is the measured outcome of one fuzzing run.
type Summary struct {
	// Transmitted counts tester-to-target L2CAP frames.
	Transmitted int
	// Malformed counts valid malformed transmitted packets.
	Malformed int
	// InvalidTx counts undecodable transmitted signaling packets.
	InvalidTx int
	// Received counts target-to-tester L2CAP frames.
	Received int
	// Rejections counts rejection packets among them.
	Rejections int
	// MPRatio is Malformed / Transmitted.
	MPRatio float64
	// PRRatio is Rejections / Received.
	PRRatio float64
	// MutationEfficiency is MPRatio × (1 − PRRatio).
	MutationEfficiency float64
	// PacketsPerSecond is Transmitted divided by the simulated capture
	// span.
	PacketsPerSecond float64
	// Span is the simulated capture span (first to last observed frame).
	Span time.Duration
	// States is the trace-inferred visited-state set, as sorted state
	// names. Carrying the set (not just its size) lets Merge union
	// coverage exactly across independent captures.
	States []string
	// StatesCovered is len(States), kept as a field for rendering and
	// comparison convenience.
	StatesCovered int
}

// Merge combines two trace summaries into the summary an ideal single
// capture of both traces would have produced. Counters add, the derived
// ratios are recomputed from the merged counters, and the spans add —
// the traces come from independent simulations with independent clocks,
// so the merged span is the serial-equivalent capture time and the
// merged PacketsPerSecond is the serial-equivalent throughput (a
// parallel farm's wall-clock speedup is measured separately, against
// real time).
//
// State coverage merges exactly: the summaries carry their visited-state
// sets, so the merged States is the set union and StatesCovered its
// size.
func (s Summary) Merge(o Summary) Summary {
	m := Summary{
		Transmitted: s.Transmitted + o.Transmitted,
		Malformed:   s.Malformed + o.Malformed,
		InvalidTx:   s.InvalidTx + o.InvalidTx,
		Received:    s.Received + o.Received,
		Rejections:  s.Rejections + o.Rejections,
		Span:        s.Span + o.Span,
	}
	if m.Transmitted > 0 {
		m.MPRatio = float64(m.Malformed) / float64(m.Transmitted)
	}
	if m.Received > 0 {
		m.PRRatio = float64(m.Rejections) / float64(m.Received)
	}
	m.MutationEfficiency = m.MPRatio * (1 - m.PRRatio)
	if span := m.Span.Seconds(); span > 0 {
		m.PacketsPerSecond = float64(m.Transmitted) / span
	}
	m.States = unionSorted(s.States, o.States)
	m.StatesCovered = len(m.States)
	return m
}

// unionSorted merges two sorted unique string slices into a fresh sorted
// unique slice, or nil when both are empty.
func unionSorted(a, b []string) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
