package telemetry

import (
	"fmt"
	"strings"
)

// TrajectorySnapshot pairs one committed bench snapshot with the label it
// is rendered under — by convention the PR number out of its
// BENCH_<pr>.json filename.
type TrajectorySnapshot struct {
	// Label identifies the snapshot in the table (e.g. "6", "8", "9").
	Label string
	// Snapshot is the snapshot's decoded content.
	Snapshot BenchSnapshot
}

// RenderBenchTrajectory renders the cross-PR performance trajectory: one
// block per bench-row name, one line per snapshot, with percentage
// deltas against the previous snapshot that measured the same row.
//
// A delta is only as good as its two measurements. When the previous
// snapshot ran on a host with a different CPU count or GOMAXPROCS, the
// line says "host changed" instead of printing percentages that would
// mostly measure the host. When the previous row recorded a spread
// (several runs, see MeasureRuns) and the new median falls inside it,
// the packets/s delta is marked noise.
//
// Rows whose name starts with "pre/" are skipped: those are same-host
// baselines recorded inside a snapshot for before/after comparison, not
// trajectory points. Parent-only rows are annotated; their deltas are
// meaningful because rows only ever compare against same-named rows,
// which share the measurement scope.
func RenderBenchTrajectory(snaps []TrajectorySnapshot) string {
	if len(snaps) == 0 {
		return "benchmark trajectory: no snapshots"
	}

	// Collect row names in first-seen order across snapshots.
	var names []string
	seen := make(map[string]bool)
	for _, ts := range snaps {
		for _, row := range ts.Snapshot.Rows {
			if strings.HasPrefix(row.Name, "pre/") || seen[row.Name] {
				continue
			}
			seen[row.Name] = true
			names = append(names, row.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Benchmark trajectory (%s)\n", snaps[0].Snapshot.Bench)
	for _, name := range names {
		fmt.Fprintf(&b, "\n%s\n", name)
		fmt.Fprintf(&b, "  %-4s %12s %10s %12s  %s\n", "PR", "pkts/s", "MB/op", "allocs/op", "delta vs prev")
		var prev *BenchRow
		var prevSnap BenchSnapshot
		for _, ts := range snaps {
			row, ok := findRow(ts.Snapshot.Rows, name)
			if !ok {
				continue
			}
			alloc := fmt.Sprintf("%d", row.AllocsPerOp)
			note := ""
			if row.ParentOnly {
				note = " (parent process only)"
			}
			delta := ""
			switch {
			case prev == nil:
			case prevSnap.CPUs != ts.Snapshot.CPUs:
				delta = fmt.Sprintf("host changed (%d→%d CPUs)", prevSnap.CPUs, ts.Snapshot.CPUs)
			case prevSnap.MaxProcs != ts.Snapshot.MaxProcs:
				delta = fmt.Sprintf("host changed (GOMAXPROCS %d→%d)", prevSnap.MaxProcs, ts.Snapshot.MaxProcs)
			default:
				pkts := pct(row.PktsPerSec, prev.PktsPerSec)
				if prev.PktsPerSecMax > 0 && row.PktsPerSec >= prev.PktsPerSecMin && row.PktsPerSec <= prev.PktsPerSecMax {
					pkts += " noise"
				}
				delta = fmt.Sprintf("pkts/s %s, MB %s, allocs %s",
					pkts,
					pct(row.MBPerOp, prev.MBPerOp),
					pct(float64(row.AllocsPerOp), float64(prev.AllocsPerOp)))
			}
			fmt.Fprintf(&b, "  %-4s %12.0f %10.1f %12s%s  %s\n",
				ts.Label, row.PktsPerSec, row.MBPerOp, alloc, note, delta)
			prev, prevSnap = &row, ts.Snapshot
		}
	}
	return b.String()
}

func findRow(rows []BenchRow, name string) (BenchRow, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r, true
		}
	}
	return BenchRow{}, false
}

// pct formats the relative change from prev to cur as a signed
// percentage, or "n/a" when prev is zero.
func pct(cur, prev float64) string {
	if prev == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", 100*(cur-prev)/prev)
}
