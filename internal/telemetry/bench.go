package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// BenchRow is one measured configuration of a bench snapshot.
type BenchRow struct {
	// Name labels the row, e.g. "workers=4" or "workers=4/telemetry".
	Name string `json:"name"`
	// Workers is the farm's worker count for this row.
	Workers int `json:"workers"`
	// Telemetry marks rows measured with counters and journaling on.
	Telemetry bool `json:"telemetry,omitempty"`
	// Packets and Findings describe the measured run's output.
	Packets  int64 `json:"packets"`
	Findings int   `json:"findings"`
	// WallSeconds is the run's wall-clock duration.
	WallSeconds float64 `json:"wallSeconds"`
	// PktsPerSec is Packets / WallSeconds. For a row measured over
	// several runs (Runs > 1) it is the median run's, and every other
	// measured field comes from that same run.
	PktsPerSec float64 `json:"pktsPerSec"`
	// Runs, PktsPerSecMin and PktsPerSecMax record how many runs a
	// multi-run row took and the spread of their packets/s. Rows
	// recorded from a single run leave them zero.
	Runs          int     `json:"runs,omitempty"`
	PktsPerSecMin float64 `json:"pktsPerSecMin,omitempty"`
	PktsPerSecMax float64 `json:"pktsPerSecMax,omitempty"`
	// MBPerOp is megabytes allocated over the run.
	MBPerOp float64 `json:"mbPerOp"`
	// AllocsPerOp is heap allocations over the run.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// ParentOnly marks rows whose MBPerOp/AllocsPerOp cover only the
	// measuring (parent) process: process-isolated executor rows run the
	// actual fuzzing in worker subprocesses, whose allocations
	// runtime.MemStats cannot see. Renderers must not compare such a
	// row's allocation columns against in-process rows.
	ParentOnly bool `json:"parentOnly,omitempty"`
}

// BenchSnapshot is a committed benchmark trajectory datum
// (BENCH_<pr>.json): one row per measured configuration plus enough
// host context to compare run-over-run.
type BenchSnapshot struct {
	// Bench names the benchmark the rows came from.
	Bench string `json:"bench"`
	// Go, GOOS, GOARCH, CPUs and MaxProcs pin the measuring host.
	Go       string     `json:"go"`
	GOOS     string     `json:"goos"`
	GOARCH   string     `json:"goarch"`
	CPUs     int        `json:"cpus"`
	MaxProcs int        `json:"maxprocs"`
	Rows     []BenchRow `json:"rows"`
}

// Measure runs one workload and fills a row's measured fields: wall
// time, packets/s and the run's allocation cost from runtime.MemStats
// deltas. The caller sets Name, Workers and Telemetry.
func Measure(fn func() (packets int64, findings int)) BenchRow {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	packets, findings := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	row := BenchRow{
		Packets:     packets,
		Findings:    findings,
		WallSeconds: wall.Seconds(),
		MBPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		AllocsPerOp: int64(after.Mallocs - before.Mallocs),
	}
	if row.WallSeconds > 0 {
		row.PktsPerSec = float64(packets) / row.WallSeconds
	}
	return row
}

// MeasureRuns runs one workload n times with Measure and returns the
// median run by packets/s, stamped with the spread of all n runs, so a
// trajectory can tell a change from run-to-run noise.
func MeasureRuns(n int, fn func() (packets int64, findings int)) BenchRow {
	rows := make([]BenchRow, n)
	for i := range rows {
		rows[i] = Measure(fn)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PktsPerSec < rows[j].PktsPerSec })
	row := rows[n/2]
	row.Runs, row.PktsPerSecMin, row.PktsPerSecMax = n, rows[0].PktsPerSec, rows[n-1].PktsPerSec
	return row
}

// NewBenchSnapshot stamps a snapshot with the measuring host's
// toolchain and CPU context.
func NewBenchSnapshot(bench string, rows []BenchRow) BenchSnapshot {
	return BenchSnapshot{
		Bench:    bench,
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Rows:     rows,
	}
}

// WriteBenchSnapshot writes the snapshot as indented JSON.
func WriteBenchSnapshot(path string, s BenchSnapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// ReadBenchSnapshot reads a snapshot written by WriteBenchSnapshot.
func ReadBenchSnapshot(path string) (BenchSnapshot, error) {
	var s BenchSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("telemetry: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	return s, nil
}
