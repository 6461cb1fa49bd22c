package telemetry

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func trajFixture() []TrajectorySnapshot {
	return []TrajectorySnapshot{
		{Label: "6", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{
			{Name: "workers=4", Workers: 4, PktsPerSec: 100000, MBPerOp: 700, AllocsPerOp: 29000000},
			{Name: "workers=4/proc", Workers: 4, PktsPerSec: 9000, MBPerOp: 0.2, AllocsPerOp: 1300, ParentOnly: true},
		}}},
		{Label: "9", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{
			{Name: "pre/workers=4", Workers: 4, PktsPerSec: 100000, MBPerOp: 700, AllocsPerOp: 29000000},
			{Name: "workers=4", Workers: 4, PktsPerSec: 200000, MBPerOp: 140, AllocsPerOp: 1600000},
			{Name: "workers=4/proc", Workers: 4, PktsPerSec: 9500, MBPerOp: 0.2, AllocsPerOp: 1300, ParentOnly: true},
		}}},
	}
}

func TestRenderBenchTrajectory(t *testing.T) {
	out := RenderBenchTrajectory(trajFixture())
	for _, want := range []string{
		"workers=4\n",           // row block present
		"(parent process only)", // ParentOnly annotation
		"pkts/s +100%",          // delta vs the PR 6 row
		"allocs -94%",           // the pooling win
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trajectory missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pre/") {
		t.Fatalf("pre/ baseline rows must be skipped:\n%s", out)
	}
	if strings.Contains(out, "noise") || strings.Contains(out, "host changed") {
		t.Fatalf("single-run rows on one host must render plain deltas:\n%s", out)
	}
	if RenderBenchTrajectory(nil) != "benchmark trajectory: no snapshots" {
		t.Fatalf("empty input not handled")
	}
}

// TestTrajectoryHostChanged: two snapshots that differ only in the
// host's CPU count must not be diffed as if the code had changed.
func TestTrajectoryHostChanged(t *testing.T) {
	row := BenchRow{Name: "workers=4", Workers: 4, PktsPerSec: 100000, MBPerOp: 1, AllocsPerOp: 1000}
	faster := row
	faster.PktsPerSec = 250000
	out := RenderBenchTrajectory([]TrajectorySnapshot{
		{Label: "9", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", CPUs: 1, MaxProcs: 1, Rows: []BenchRow{row}}},
		{Label: "14", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", CPUs: 2, MaxProcs: 1, Rows: []BenchRow{faster}}},
	})
	if !strings.Contains(out, "host changed (1→2 CPUs)") {
		t.Fatalf("CPU change not flagged:\n%s", out)
	}
	if strings.Contains(out, "+150%") {
		t.Fatalf("cross-host delta printed as a percentage:\n%s", out)
	}
}

// TestTrajectoryNoise: a new median inside the previous row's
// recorded [min, max] spread is labelled noise; one outside it is not.
func TestTrajectoryNoise(t *testing.T) {
	prev := BenchRow{Name: "workers=1", Workers: 1, PktsPerSec: 1000, Runs: 5, PktsPerSecMin: 800, PktsPerSecMax: 1200}
	for _, tc := range []struct {
		median float64
		noise  bool
	}{{1150, true}, {1300, false}} {
		cur := prev
		cur.PktsPerSec = tc.median
		out := RenderBenchTrajectory([]TrajectorySnapshot{
			{Label: "14", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{prev}}},
			{Label: "15", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{cur}}},
		})
		if got := strings.Contains(out, "noise"); got != tc.noise {
			t.Errorf("median %v against spread [800, 1200]: noise label %v, want %v:\n%s", tc.median, got, tc.noise, out)
		}
	}
}

// TestMeasureRunsSpread: a multi-run row is the median run, stamped
// with the run count and the packets/s spread.
func TestMeasureRunsSpread(t *testing.T) {
	// Runs of about equal wall time whose packet counts differ by 1000×
	// apiece, so timing jitter cannot reorder them.
	packets := []int64{1e9, 1e3, 1e15, 1e6, 1e12}
	i := 0
	row := MeasureRuns(len(packets), func() (int64, int) {
		p := packets[i]
		i++
		time.Sleep(time.Millisecond)
		return p, 0
	})
	if row.Runs != 5 || row.Packets != 1e9 {
		t.Fatalf("row = %+v, want the median run (1e9 packets) of 5", row)
	}
	if !(row.PktsPerSecMin <= row.PktsPerSec && row.PktsPerSec <= row.PktsPerSecMax) || row.PktsPerSecMin == row.PktsPerSecMax {
		t.Fatalf("spread [%v, %v] does not bracket median %v", row.PktsPerSecMin, row.PktsPerSecMax, row.PktsPerSec)
	}
}

// TestParentOnlyRoundTrip pins the schema: the parentOnly marker must
// survive the JSON snapshot format, or proc rows silently read back as
// full-process measurements.
func TestParentOnlyRoundTrip(t *testing.T) {
	s := NewBenchSnapshot("BenchmarkFleet", []BenchRow{
		{Name: "workers=4/proc", Workers: 4, ParentOnly: true, Packets: 100},
	})
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteBenchSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rows[0].ParentOnly {
		t.Fatalf("ParentOnly lost in round trip: %+v", got.Rows[0])
	}
}
