package analyze_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"l2fuzz/internal/fleet"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/telemetry/analyze"
)

// TestTornFinalRecord cuts the committed CI journal at every byte offset
// of its final record, and does the same to a journal whose final record
// is a job result, and checks every reader: the decoder delivers every complete record then reports
// ErrTruncatedJournal, the analyzer renders those records with a
// truncation mark, and replay still refuses the journal.
func TestTornFinalRecord(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ci-baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// The second journal is the farm header followed by the last
	// job-done record, so the torn record is a job result.
	header := data[:bytes.IndexByte(data, '\n')+1]
	jobAt := bytes.LastIndexByte(data[:bytes.LastIndex(data, []byte(`"type":"job-done"`))], '\n') + 1
	job := data[jobAt : jobAt+bytes.IndexByte(data[jobAt:], '\n')+1]
	journals := map[string][]byte{
		"whole journal":       data,
		"header, last result": append(append([]byte(nil), header...), job...),
	}
	for name, journal := range journals {
		t.Run(name, func(t *testing.T) {
			start := bytes.LastIndexByte(journal[:len(journal)-1], '\n') + 1
			complete := bytes.Count(journal[:start], []byte("\n"))
			// A cut that drops the final record's newline but keeps all
			// of its bytes leaves a complete record, not a torn one.
			for cut := start; cut < len(journal); cut++ {
				torn := cut > start && cut < len(journal)-1
				want := complete
				if cut == len(journal)-1 {
					want++
				}
				prefix := journal[:cut]

				delivered, jobs := 0, 0
				err := telemetry.DecodeJournal(bytes.NewReader(prefix), func(rec telemetry.Record) error {
					delivered++
					if rec.Type == "job-done" {
						jobs++
					}
					return nil
				})
				if delivered != want {
					t.Fatalf("cut %d: DecodeJournal delivered %d records, want %d", cut, delivered, want)
				}
				if got := errors.Is(err, telemetry.ErrTruncatedJournal); got != torn || (!torn && err != nil) {
					t.Fatalf("cut %d: DecodeJournal error = %v, want truncated=%v", cut, err, torn)
				}

				run, err := analyze.Parse(bytes.NewReader(prefix))
				if err != nil {
					t.Fatalf("cut %d: Parse error = %v", cut, err)
				}
				if (run.Truncated != nil) != torn || (torn && !errors.Is(run.Truncated, telemetry.ErrTruncatedJournal)) {
					t.Fatalf("cut %d: Parse Truncated = %v, want truncated=%v", cut, run.Truncated, torn)
				}
				if len(run.Jobs) != jobs {
					t.Fatalf("cut %d: Parse kept %d jobs, want the %d complete ones", cut, len(run.Jobs), jobs)
				}
				if torn {
					if _, err := fleet.ReplayJournal(ciConfig(), bytes.NewReader(prefix)); !errors.Is(err, telemetry.ErrTruncatedJournal) {
						t.Fatalf("cut %d: ReplayJournal error = %v, want ErrTruncatedJournal", cut, err)
					}
				}
			}
		})
	}
}

// TestCorruptLineIsNotTruncation keeps the old failure for a malformed
// record that does end in a newline: that is corruption, not a torn tail.
func TestCorruptLineIsNotTruncation(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ci-baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append(append([]byte(nil), data...), "{\"time\":\n"...)
	err = telemetry.DecodeJournal(bytes.NewReader(corrupt), func(telemetry.Record) error { return nil })
	if err == nil || errors.Is(err, telemetry.ErrTruncatedJournal) {
		t.Errorf("DecodeJournal on a corrupt newline-terminated line: error = %v, want a non-truncation error", err)
	}
	if _, err := analyze.Parse(bytes.NewReader(corrupt)); err == nil {
		t.Error("Parse accepted a corrupt newline-terminated line")
	}
}
