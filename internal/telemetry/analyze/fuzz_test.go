package analyze_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"l2fuzz/internal/telemetry/analyze"
)

// FuzzParse feeds arbitrary journals to the analyzer: Parse must never
// panic, and neither may any figure builder on a run that parsed —
// journals are read from disk after farms that may have died mid-write,
// so the analyzer cannot trust their spans, offsets or counts.
func FuzzParse(f *testing.F) {
	journals, err := filepath.Glob(filepath.Join("testdata", "*.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range journals {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The same journal with its final line torn mid-record.
		f.Add(data[:len(data)-len(data[bytes.LastIndexByte(data[:len(data)-1], '\n')+1:])/2])
		// Its farm header and final record alone, a small seed the
		// mutator can reshape quickly.
		header := data[:bytes.IndexByte(data, '\n')+1]
		f.Add(append(append([]byte(nil), header...), data[bytes.LastIndexByte(data[:len(data)-1], '\n')+1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := analyze.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		run.Coverage()
		for _, by := range []analyze.GroupBy{analyze.ByDevice, analyze.ByKind, analyze.ByVariant} {
			if _, err := run.Latency(by); err != nil {
				t.Fatalf("latency by %s: %v", by, err)
			}
		}
		run.WorkerTimelines()
	})
}
