package fuzzers_test

import (
	"runtime"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/core"
	"l2fuzz/internal/testbed"
)

// maxExtraAllocsPerPacket caps the steady-state allocations of each
// engine's packet path, in allocations per packet. The measured figures
// are L2Fuzz 0.011, Defensics 0.002, BFuzz 0.031 and BSS 0.126; the caps
// leave headroom over them yet sit far below the one allocation per
// packet that a freshly built command or reply value would add. What
// remains is state that legitimately grows with the run — the sniffer's
// shadow of each channel whose closing it never sees (BSS drops the link
// every eight packets), its lazily paged CID tables and verdict bits —
// and the decode errors of the command data BFuzz's data-only mutations
// corrupt.
var maxExtraAllocsPerPacket = map[string]float64{
	"L2Fuzz":    0.02,
	"Defensics": 0.01,
	"BFuzz":     0.05,
	"BSS":       0.2,
}

// engines runs each Table VII engine for n packets on a rig.
func engines() map[string]func(r *testbed.Rig, n int) error {
	runs := map[string]func(r *testbed.Rig, n int) error{
		"L2Fuzz": func(r *testbed.Rig, n int) error {
			cfg := core.DefaultConfig(1)
			cfg.MaxPackets = n
			_, err := core.New(r.Client, cfg).Run(r.Device.Address())
			return err
		},
	}
	for name, build := range builders() {
		runs[name] = func(r *testbed.Rig, n int) error {
			_, err := build(r.Client, 1).Run(r.Device.Address(), n)
			return err
		}
	}
	return runs
}

// mallocsFor returns the heap allocations of one run of n packets on a
// fresh measurement-grade D2 rig, rig construction excluded.
func mallocsFor(t *testing.T, run func(r *testbed.Rig, n int) error, n int) uint64 {
	t.Helper()
	spec, err := device.CatalogSpec("D2", true)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := testbed.New(spec, testbed.Options{DisableVulns: true})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run(rig, n); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEnginesSteadyStateAllocations runs every engine for n and 2n
// packets on fresh rigs: the extra allocations of the longer run, per
// extra packet, are the packet path's steady-state cost, with each
// run's fixed setup cancelled out.
func TestEnginesSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each engine for 30k packets")
	}
	const n = 10_000
	for name, run := range engines() {
		t.Run(name, func(t *testing.T) {
			short := mallocsFor(t, run, n)
			long := mallocsFor(t, run, 2*n)
			perPacket := (float64(long) - float64(short)) / n
			t.Logf("%s: %d allocs for %d packets, %d for %d: %.4f per extra packet",
				name, short, n, long, 2*n, perPacket)
			if limit := maxExtraAllocsPerPacket[name]; perPacket > limit {
				t.Errorf("%s allocates %.4f times per packet at steady state, ceiling %.2f",
					name, perPacket, limit)
			}
		})
	}
}
