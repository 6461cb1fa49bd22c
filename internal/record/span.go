package record

import "time"

// Span is one job's trace through the farm's execution phases, as
// monotonic offsets from the farm's start — the same clock origin the
// journal's record offsets and counter samples use, so a journal
// analyzer can place every phase of every job on one time axis.
//
// The phases, in order:
//
//	QueuedNs      the job entered the feed (zero for the initial
//	              enqueue at Start; the requeue time after a worker
//	              died under the job)
//	DispatchedNs  a dispatcher popped the job off the feed
//	StartedNs     the executor began executing it — for ProcExecutor,
//	              after an idle worker subprocess was acquired, as the
//	              job hit the wire
//	FinishedNs    the executor returned the result to the dispatcher
//
// ExecNs is the execution wall time measured inside the executor,
// around the job run itself: for LocalExecutor it spans runJob on the
// dispatcher goroutine; for ProcExecutor it is measured by the worker
// subprocess around its own runJob and shipped back in the result, so
// (FinishedNs-StartedNs)-ExecNs is the wire transport cost — encode,
// kernel pipe, decode — that in-process execution does not pay.
//
// Spans are measurements, not identity: ScrubWall zeroes them along
// with every other wall-clock field, so reports from different runs
// (or executors) still compare equal on everything deterministic.
type Span struct {
	QueuedNs     time.Duration `json:"queuedNs"`
	DispatchedNs time.Duration `json:"dispatchedNs"`
	StartedNs    time.Duration `json:"startedNs"`
	FinishedNs   time.Duration `json:"finishedNs"`
	ExecNs       time.Duration `json:"execNs"`
}

// QueueWait is how long the job sat in the feed before a dispatcher
// picked it up.
func (s Span) QueueWait() time.Duration { return max(s.DispatchedNs-s.QueuedNs, 0) }

// DispatchWait is how long the dispatcher took to begin execution —
// for ProcExecutor, the wait for an idle worker subprocess.
func (s Span) DispatchWait() time.Duration { return max(s.StartedNs-s.DispatchedNs, 0) }

// Execute is the in-executor execution time (ExecNs).
func (s Span) Execute() time.Duration { return max(s.ExecNs, 0) }

// Transport is the executor overhead around execution: time between
// Started and Finished not spent executing. Zero-ish for LocalExecutor;
// the wire codec and pipe cost for ProcExecutor.
func (s Span) Transport() time.Duration { return max(s.FinishedNs-s.StartedNs-s.ExecNs, 0) }

// IsZero reports whether the span was never stamped (a hand-built
// JobResult, or a pre-span journal).
func (s Span) IsZero() bool { return s == Span{} }
