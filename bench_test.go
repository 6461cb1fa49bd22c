// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV), plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark runs the corresponding experiment
// end to end and reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` reproduces the whole evaluation.
package l2fuzz_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"l2fuzz"
	"l2fuzz/internal/harness"
	"l2fuzz/internal/telemetry"
)

// TestMain re-execs this test binary as a farm worker subprocess when
// the proc-executor bench rows spawn it (see fleetBenchRun).
func TestMain(m *testing.M) {
	if os.Getenv("L2FUZZ_FLEET_WORKER") == "1" {
		if err := l2fuzz.RunFleetWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkTableV_DeviceCatalog regenerates the testbed inventory
// (paper Table V).
func BenchmarkTableV_DeviceCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.TableV()
		if len(rows) != 8 {
			b.Fatalf("catalog has %d devices", len(rows))
		}
	}
}

// BenchmarkTableVI_VulnDetection regenerates the vulnerability-detection
// results (paper Table VI): L2Fuzz against all eight devices, defects
// armed. Reported metrics: vulnerabilities found and the simulated
// seconds to the D2 (Pixel 3) detection.
func BenchmarkTableVI_VulnDetection(b *testing.B) {
	cfg := harness.DefaultTableVIConfig()
	cfg.RobustBudget = 100_000 // robustness is binary; keep benches brisk
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableVI(cfg)
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		var d2Seconds float64
		for _, r := range rows {
			if r.Vuln {
				found++
			}
			if r.Device == "D2" {
				d2Seconds = r.Elapsed.Seconds()
			}
		}
		if found != 5 {
			b.Fatalf("found %d vulnerabilities, want 5", found)
		}
		b.ReportMetric(float64(found), "vulns")
		b.ReportMetric(d2Seconds, "simsec/D2")
	}
}

// BenchmarkTableVII_MutationEfficiency regenerates the mutation-
// efficiency comparison (paper Table VII) at the paper's 100,000-packet
// budget. Reported metrics: L2Fuzz's MP ratio, PR ratio and efficiency
// in percent (paper: 69.96 / 32.49 / 47.22).
func BenchmarkTableVII_MutationEfficiency(b *testing.B) {
	cfg := harness.DefaultTableVIIConfig()
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableVII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Fuzzer == harness.NameL2Fuzz {
				b.ReportMetric(100*r.Summary.MPRatio, "MP%")
				b.ReportMetric(100*r.Summary.PRRatio, "PR%")
				b.ReportMetric(100*r.Summary.MutationEfficiency, "eff%")
				b.ReportMetric(r.Summary.PacketsPerSecond, "pps")
			}
		}
	}
}

// BenchmarkFig8_MPSeries regenerates the cumulative malformed-packet
// series (paper Figure 8). Reported metric: L2Fuzz's final cumulative
// malformed count (paper: 69,966 of 100,000).
func BenchmarkFig8_MPSeries(b *testing.B) {
	cfg := harness.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Fuzzer == harness.NameL2Fuzz && len(s.Points) > 0 {
				b.ReportMetric(float64(s.Points[len(s.Points)-1].Y), "malformed")
			}
		}
	}
}

// BenchmarkFig9_PRSeries regenerates the cumulative rejection series
// (paper Figure 9). Reported metric: BFuzz's final cumulative rejection
// count (paper: ~91,600 of 100,000 received).
func BenchmarkFig9_PRSeries(b *testing.B) {
	cfg := harness.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Fuzzer == harness.NameBFuzz && len(s.Points) > 0 {
				b.ReportMetric(float64(s.Points[len(s.Points)-1].Y), "rejections")
			}
		}
	}
}

// BenchmarkFig10_StateCoverage regenerates the state-coverage bars
// (paper Figure 10: 13 / 7 / 6 / 3) and, via the same rows, the
// Figure 11 per-state map.
func BenchmarkFig10_StateCoverage(b *testing.B) {
	cfg := harness.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Fuzzer {
			case harness.NameL2Fuzz:
				b.ReportMetric(float64(r.States), "L2Fuzz-states")
			case harness.NameDefensics:
				b.ReportMetric(float64(r.States), "Defensics-states")
			case harness.NameBFuzz:
				b.ReportMetric(float64(r.States), "BFuzz-states")
			case harness.NameBSS:
				b.ReportMetric(float64(r.States), "BSS-states")
			}
		}
		if harness.RenderFigure11(rows) == "" {
			b.Fatal("empty Figure 11")
		}
	}
}

// ablationRun measures one L2Fuzz variant on a measurement-grade D2.
func ablationRun(b *testing.B, mutate func(*l2fuzz.FuzzConfig)) l2fuzz.Metrics {
	b.Helper()
	sim, err := l2fuzz.NewSimulation()
	if err != nil {
		b.Fatal(err)
	}
	target, err := sim.AddMeasurementDevice("D2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := l2fuzz.FuzzConfig{Seed: 11, MaxPackets: 40_000}
	mutate(&cfg)
	if _, err := sim.RunL2Fuzz(target, cfg); err != nil {
		b.Fatal(err)
	}
	return sim.Metrics()
}

// BenchmarkAblation_Baseline is the un-ablated reference configuration
// for the ablation benches below.
func BenchmarkAblation_Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(*l2fuzz.FuzzConfig) {})
		b.ReportMetric(100*m.MutationEfficiency, "eff%")
		b.ReportMetric(float64(m.StatesCovered), "states")
	}
}

// BenchmarkAblation_NoStateGuiding removes state guiding entirely: no
// transition recipes, commands drawn from all 26 codes against a cold
// link. Mutation efficiency survives (core field mutating still makes
// valid packets) but state coverage collapses — the deep configuration,
// move and creation states where the paper's zero-days live are never
// reached.
func BenchmarkAblation_NoStateGuiding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(c *l2fuzz.FuzzConfig) { c.NoStateGuiding = true })
		b.ReportMetric(100*m.MutationEfficiency, "eff%")
		b.ReportMetric(100*m.PRRatio, "PR%")
		b.ReportMetric(float64(m.StatesCovered), "states")
	}
}

// BenchmarkAblation_MutateAllFields scrambles dependent fields too (the
// dumb mutation the paper argues against): transmitted packets become
// invalid rather than valid-malformed and the MP ratio collapses.
func BenchmarkAblation_MutateAllFields(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(c *l2fuzz.FuzzConfig) { c.MutateAllFields = true })
		b.ReportMetric(100*m.MPRatio, "MP%")
		b.ReportMetric(100*m.PRRatio, "PR%")
	}
}

// BenchmarkFleet measures farm throughput — aggregate transmitted
// packets per wall-clock second — for a fixed eight-device × L2Fuzz ×
// two-shard matrix at 1, 4 and 8 workers, establishing the scaling
// trajectory of the fleet orchestrator. The matrix and budgets are
// constant across worker counts, so pkts/s is directly comparable.
// (On a single-core host the three counts converge: the farm is CPU-
// bound, so the speedup tracks available cores.) Allocations are
// reported per worker count too: the farm is CPU-bound today, so the
// per-job allocation volume is the hot-spot budget the ROADMAP's
// fleet-scaling item chases.
func BenchmarkFleet(b *testing.B) {
	for _, bc := range fleetBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				report, err := fleetBenchRun(bc.workers, bc.telemetry, bc.proc)
				if err != nil {
					b.Fatal(err)
				}
				if report.Failed > 0 {
					b.Fatalf("%d jobs failed", report.Failed)
				}
				wall := time.Since(start).Seconds()
				b.ReportMetric(float64(report.TotalPackets)/wall, "pkts/s")
				b.ReportMetric(float64(len(report.Findings)), "findings")
			}
		})
	}
}

// fleetBenchCases is the recorded fleet trajectory: the three worker
// counts, a telemetry-on point whose overhead against the plain
// workers=4 point is the budget the telemetry hot path must hold, and
// a process-isolated point whose overhead against the same baseline
// prices the executor's serialization and pipe transport.
var fleetBenchCases = []struct {
	name      string
	workers   int
	telemetry bool
	proc      bool
}{
	{"workers=1", 1, false, false},
	{"workers=4", 4, false, false},
	{"workers=8", 8, false, false},
	{"workers=4/telemetry", 4, true, false},
	{"workers=4/proc", 4, false, true},
}

// fleetBenchRun executes BenchmarkFleet's fixed matrix once: eight
// devices × L2Fuzz × two shards at 50k packets. With telemetry on, the
// farm carries hot-path counters and writes a discarded run journal —
// the full recording stack minus the disk. With proc on, jobs run in
// worker subprocesses (re-executions of this test binary, see
// TestMain) instead of the in-process pool.
func fleetBenchRun(workers int, telemetry, proc bool) (*l2fuzz.FleetReport, error) {
	cfg := l2fuzz.FleetConfig{
		Shards:           2,
		BaseSeed:         7,
		Workers:          workers,
		MaxPacketsPerJob: 50_000,
	}
	if telemetry {
		cfg.Counters = &l2fuzz.TelemetryCounters{}
		cfg.Journal = l2fuzz.NewTelemetryJournal(io.Discard)
	}
	if proc {
		cfg.Executor = l2fuzz.NewFleetProcExecutor(l2fuzz.FleetProcConfig{
			Procs:   workers,
			Command: []string{os.Args[0]},
			Env:     []string{"L2FUZZ_FLEET_WORKER=1"},
		})
	}
	return l2fuzz.RunFleet(cfg)
}

// TestBenchSnapshot records the fleet trajectory as a committed bench
// snapshot (the repo's BENCH_8.json):
//
//	BENCH_SNAPSHOT=BENCH_8.json go test -run TestBenchSnapshot .
//
// Each row is the median of benchSnapshotRuns runs with the min and max
// packets/s beside it: single runs of an unchanged farm spread by about
// ±20% on a 2-vCPU host, more than the deltas a trajectory reports.
//
// Skipped unless BENCH_SNAPSHOT names the output path, so regular test
// runs stay fast and the committed file only changes deliberately.
const benchSnapshotRuns = 5

func TestBenchSnapshot(t *testing.T) {
	path := os.Getenv("BENCH_SNAPSHOT")
	if path == "" {
		t.Skip("set BENCH_SNAPSHOT=<path> to record the fleet bench trajectory")
	}
	rows := make([]l2fuzz.BenchRow, 0, len(fleetBenchCases))
	for _, bc := range fleetBenchCases {
		row := telemetry.MeasureRuns(benchSnapshotRuns, func() (int64, int) {
			report, err := fleetBenchRun(bc.workers, bc.telemetry, bc.proc)
			if err != nil {
				t.Fatal(err)
			}
			if report.Failed > 0 {
				t.Fatalf("%d jobs failed", report.Failed)
			}
			return int64(report.TotalPackets), len(report.Findings)
		})
		row.Name = bc.name
		row.Workers = bc.workers
		row.Telemetry = bc.telemetry
		// Proc rows fuzz in worker subprocesses, so the parent's MemStats
		// deltas cover only orchestration; mark them so renderers don't
		// present the number as the farm's allocation cost.
		row.ParentOnly = bc.proc
		rows = append(rows, row)
	}
	if err := l2fuzz.WriteBenchSnapshot(path, l2fuzz.NewBenchSnapshot("BenchmarkFleet", rows)); err != nil {
		t.Fatal(err)
	}
}

// allocBudget mirrors ALLOC_BUDGET.json: the committed ceiling on the
// packet path's allocation cost, enforced by TestAllocBudget.
type allocBudget struct {
	// Bench names the guarded configuration, for the error message.
	Bench string `json:"bench"`
	// MaxAllocsPerOp and MaxMBPerOp are the ceilings one benchmark op
	// (one full fleet run) must stay under.
	MaxAllocsPerOp int64   `json:"maxAllocsPerOp"`
	MaxMBPerOp     float64 `json:"maxMBPerOp"`
}

// TestAllocBudget is the allocation-regression gate: it benchmarks the
// workers=4 fleet configuration with allocation reporting and fails if
// allocs/op or MB/op exceeds the committed ALLOC_BUDGET.json, so the
// allocation tail PR 9 reclaimed cannot silently grow back.
//
//	ALLOC_GATE=1 go test -run TestAllocBudget .
//
// Skipped without ALLOC_GATE=1 (the run costs a few fleet executions);
// CI always sets it.
func TestAllocBudget(t *testing.T) {
	if os.Getenv("ALLOC_GATE") == "" {
		t.Skip("set ALLOC_GATE=1 to run the allocation-regression gate")
	}
	data, err := os.ReadFile("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget allocBudget
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatalf("ALLOC_BUDGET.json: %v", err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			report, err := fleetBenchRun(4, false, false)
			if err != nil {
				b.Fatal(err)
			}
			if report.Failed > 0 {
				b.Fatalf("%d jobs failed", report.Failed)
			}
		}
	})
	allocs := res.AllocsPerOp()
	mb := float64(res.AllocedBytesPerOp()) / 1e6
	t.Logf("%s: %d allocs/op (budget %d), %.1f MB/op (budget %.1f)",
		budget.Bench, allocs, budget.MaxAllocsPerOp, mb, budget.MaxMBPerOp)
	if allocs > budget.MaxAllocsPerOp {
		t.Errorf("allocs/op regression: %d > budget %d", allocs, budget.MaxAllocsPerOp)
	}
	if mb > budget.MaxMBPerOp {
		t.Errorf("MB/op regression: %.1f > budget %.1f", mb, budget.MaxMBPerOp)
	}
}

// BenchmarkAblation_NoGarbage drops the garbage tail. The D2 defect needs
// the tail, so detection disappears entirely (verified in the unit
// tests); here we report the residual malformed ratio.
func BenchmarkAblation_NoGarbage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ablationRun(b, func(c *l2fuzz.FuzzConfig) { c.NoGarbage = true })
		b.ReportMetric(100*m.MPRatio, "MP%")
	}
}
