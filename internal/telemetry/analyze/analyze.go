package analyze

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"l2fuzz/internal/record"
	"l2fuzz/internal/telemetry"
)

// minVersion..maxVersion is the journal schema range Parse reads.
// Version 2 journals (pre-span) parse with zero spans and an unknown
// sample interval; version 3 adds both.
const (
	minVersion = 2
	maxVersion = 3
)

// Header is the journal's farm record: the matrix shape the run was
// configured with. SampleInterval is zero in version-2 journals.
type Header = record.Farm

// Span is one job's trace through the farm's phases (zero in version-2
// journals).
type Span = record.Span

// Job identifies one matrix cell and shard.
type Job = record.Job

// Signature is a finding's de-duplication identity, mirroring
// core.Signature's (state, port, error-class) triple.
type Signature struct {
	State int `json:"State"`
	PSM   int `json:"PSM"`
	Class int `json:"Error"`
}

// Occurrence is one finding a job produced with its repeat count. Only
// the signature fields of the finding are decoded — identity is all the
// coverage curve needs.
type Occurrence struct {
	Finding Signature `json:"finding"`
	Count   int       `json:"count"`
}

// JobDone is one job-done journal record with its envelope offset.
type JobDone struct {
	// At is the record's envelope offset: when the result folded, on
	// the run's monotonic clock.
	At          time.Duration  `json:"-"`
	Job         Job            `json:"job"`
	Worker      string         `json:"worker"`
	Err         string         `json:"err"`
	PacketsSent int            `json:"packetsSent"`
	Elapsed     time.Duration  `json:"elapsedNs"`
	Wall        time.Duration  `json:"wallNs"`
	Span        Span           `json:"span"`
	Crashed     bool           `json:"crashed"`
	Findings    []Occurrence   `json:"findings"`
	Summary     record.Summary `json:"summary"`
	Done        int            `json:"done"`
	Total       int            `json:"total"`
}

// Failed reports whether the job errored. Failed jobs contribute wall
// time (they occupied a worker) but no packets, metrics or findings —
// the same rule the farm's aggregator folds by.
func (j JobDone) Failed() bool { return j.Err != "" }

// Sample is one periodic counter snapshot with its envelope offset.
type Sample struct {
	At time.Duration `json:"-"`
	telemetry.CounterSnapshot
}

// WorkerChange is one executor worker lifecycle record.
type WorkerChange struct {
	At time.Duration `json:"-"`
	record.Worker
}

// Run is one parsed journal, ready for the figure builders.
type Run struct {
	Header  Header
	Jobs    []JobDone // in journal (fold) order
	Samples []Sample
	Workers []WorkerChange
	// Duration is the largest envelope offset in the journal — the
	// run's observed wall extent on its own monotonic clock.
	Duration time.Duration
	// Truncated is nil unless the journal's final record was cut off
	// mid-line (a farm killed while writing it). It then wraps
	// telemetry.ErrTruncatedJournal, and the run holds every record
	// before the torn one.
	Truncated error
}

// Parse decodes a farm journal stream. The journal must open with a
// farm header of a schema version this package reads; records the
// figures do not consume (job-started, finding) are skipped. A torn
// final record is not an error: the run is returned with Truncated set.
func Parse(r io.Reader) (*Run, error) {
	run := &Run{}
	sawHeader := false
	err := telemetry.DecodeJournal(r, func(rec telemetry.Record) error {
		if rec.Offset > run.Duration {
			run.Duration = rec.Offset
		}
		switch rec.Type {
		case "farm":
			if err := json.Unmarshal(rec.Data, &run.Header); err != nil {
				return fmt.Errorf("analyze: farm record: %w", err)
			}
			if v := run.Header.Version; v < minVersion || v > maxVersion {
				return fmt.Errorf("analyze: journal schema version %d, this build reads %d..%d", v, minVersion, maxVersion)
			}
			sawHeader = true
		case "job-done":
			if !sawHeader {
				return errors.New("analyze: journal carries results before its farm header")
			}
			var jd JobDone
			if err := json.Unmarshal(rec.Data, &jd); err != nil {
				return fmt.Errorf("analyze: job-done record: %w", err)
			}
			jd.At = rec.Offset
			run.Jobs = append(run.Jobs, jd)
		case telemetry.RecordSample:
			var s Sample
			if err := json.Unmarshal(rec.Data, &s.CounterSnapshot); err != nil {
				return fmt.Errorf("analyze: sample record: %w", err)
			}
			s.At = rec.Offset
			run.Samples = append(run.Samples, s)
		case "worker":
			var w WorkerChange
			if err := json.Unmarshal(rec.Data, &w); err != nil {
				return fmt.Errorf("analyze: worker record: %w", err)
			}
			w.At = rec.Offset
			run.Workers = append(run.Workers, w)
		}
		return nil
	})
	if errors.Is(err, telemetry.ErrTruncatedJournal) {
		run.Truncated, err = err, nil
	}
	if err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("analyze: not a farm journal (no farm header record)")
	}
	return run, nil
}

// ParseFile parses a journal from disk. path may be the journal file
// itself, a run directory holding one, or a directory of run
// directories (the l2farm -journal layout), in which case the
// lexically last run — the newest, under the run-<timestamp> naming —
// is picked.
func ParseFile(path string) (*Run, error) {
	resolved, err := ResolveJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(resolved)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// ResolveJournal maps a user-supplied path to a journal file, applying
// ParseFile's directory conventions.
func ResolveJournal(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return path, nil
	}
	direct := filepath.Join(path, telemetry.JournalFile)
	if _, err := os.Stat(direct); err == nil {
		return direct, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", err
	}
	var last string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		nested := filepath.Join(path, e.Name(), telemetry.JournalFile)
		if _, err := os.Stat(nested); err == nil {
			last = nested
		}
	}
	if last == "" {
		return "", fmt.Errorf("analyze: no %s under %s", telemetry.JournalFile, path)
	}
	return last, nil
}
