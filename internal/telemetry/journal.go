package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// JournalFile is the file name a run journal is written under inside
// its per-run directory.
const JournalFile = "journal.jsonl"

// Record is the journal's line envelope: one JSON object per line with
// a UTC timestamp, a monotonic offset from the run's clock origin, a
// record type tag and the type-specific payload. The payload schemas
// are owned by the packages that write them (the fleet package for farm
// records, this package for counter samples).
type Record struct {
	Time time.Time `json:"time"`
	// Offset is the record's position on the run's monotonic clock:
	// nanoseconds since the journal's epoch (the farm's start time once
	// SetEpoch is called, the journal's creation time before). Unlike
	// Time — a wall-clock reading that can step mid-run — offsets are
	// monotone across the whole journal, so analyzers derive their time
	// axis from them.
	Offset time.Duration   `json:"offsetNs"`
	Type   string          `json:"type"`
	Data   json.RawMessage `json:"data"`
}

// RecordSample is the record type of periodic CounterSnapshot samples
// written by Sample and StartSampler.
const RecordSample = "sample"

// Journal writes a run's record stream as JSONL. Writes are serialized
// by an internal mutex; the first write or encode error latches and
// every later call becomes a no-op, so a full disk mid-run degrades to
// a truncated journal plus a non-nil Err rather than a crashed farm.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer
	dir   string
	now   func() time.Time
	epoch time.Time
	err   error
}

// NewJournal wraps an arbitrary writer as a journal. Close does not
// close the writer.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, now: time.Now, epoch: time.Now()}
}

// OpenJournal creates dir (and parents) and opens a fresh JournalFile
// inside it. The file is opened exclusively: reusing a directory that
// already holds a journal fails loudly instead of clobbering the prior
// run.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	j := NewJournal(f)
	j.c = f
	j.dir = dir
	return j, nil
}

// Dir reports the per-run directory when the journal was opened with
// OpenJournal, empty otherwise.
func (j *Journal) Dir() string { return j.dir }

// SetClock replaces the timestamp source; tests pin it for byte-stable
// goldens. The offset epoch is re-based onto the new clock (consuming
// one reading), so pinned clocks yield deterministic offsets too.
func (j *Journal) SetClock(now func() time.Time) {
	j.mu.Lock()
	j.now = now
	j.epoch = now()
	j.mu.Unlock()
}

// SetEpoch re-bases every later record's Offset onto t — the one
// monotonic clock origin of the run. The farm calls it with its own
// start time when it writes the journal header, so counter samples,
// event records and the per-job trace spans inside them all measure
// time from the same instant; without it offsets count from the
// journal's creation, which can precede the farm by however long the
// caller took to wire things up.
func (j *Journal) SetEpoch(t time.Time) {
	j.mu.Lock()
	j.epoch = t
	j.mu.Unlock()
}

// Write appends one record of the given type. The payload is marshaled
// first so an unmarshalable payload never emits a half-written line.
func (j *Journal) Write(typ string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return j.fail(fmt.Errorf("telemetry: marshal %s record: %w", typ, err))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	now := j.now()
	off := now.Sub(j.epoch)
	if off < 0 {
		// A record predating the epoch (written before the farm re-based
		// it) clamps to zero rather than going negative: analyzers treat
		// offsets as positions on the run's time axis.
		off = 0
	}
	line, err := json.Marshal(Record{Time: now.UTC(), Offset: off, Type: typ, Data: payload})
	if err != nil {
		j.err = fmt.Errorf("telemetry: marshal %s envelope: %w", typ, err)
		return j.err
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		j.err = fmt.Errorf("telemetry: write %s record: %w", typ, err)
		return j.err
	}
	return nil
}

func (j *Journal) fail(err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// Err reports the first error the journal hit, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file when the journal owns one
// (OpenJournal); journals over caller-supplied writers leave the
// writer open. It returns the latched write error, if any, so a
// single deferred Close surfaces mid-run failures.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = fmt.Errorf("telemetry: %w", err)
		}
		j.c = nil
	}
	return j.err
}

// Sample writes one counter snapshot as a RecordSample record.
func (j *Journal) Sample(c *Counters) error {
	return j.Write(RecordSample, c.Snapshot())
}

// StartSampler writes a counter sample every interval until the
// returned stop function is called. Stop is idempotent and waits for
// the sampler goroutine to exit, so callers may stop before Close
// without racing a final sample against the file close.
func (j *Journal) StartSampler(c *Counters, every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				j.Sample(c)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// maxJournalLine bounds a single journal line when decoding; a full
// campaign's job result with a large summary stays far below this.
const maxJournalLine = 16 << 20

// ErrTruncatedJournal reports a journal whose final line was cut off
// mid-record: the writer died (or the disk filled) before finishing it.
// Every record before that line is complete and was delivered.
var ErrTruncatedJournal = errors.New("telemetry: journal truncated mid-record")

// DecodeJournal streams records out of a persisted journal, calling fn
// for each line in order. fn returning an error stops the decode and
// returns that error. A final line with no newline that does not decode
// is a torn record: every record before it has been delivered, and the
// returned error wraps ErrTruncatedJournal.
func DecodeJournal(r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	// torn reports whether the last token scanned was a final line that
	// the input ended before terminating.
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		torn = atEOF && tok != nil && bytes.IndexByte(data[:adv], '\n') < 0
		return adv, tok, err
	})
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			if torn {
				return fmt.Errorf("%w: line %d: %w", ErrTruncatedJournal, line, err)
			}
			return fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: read journal: %w", err)
	}
	return nil
}
