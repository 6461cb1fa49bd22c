package main

import (
	"testing"

	"l2fuzz/internal/fleet"
)

// TestReplayFidelity pins that the traced run measures the same program
// the farm runs: replaying a recorded job trace on a fresh rig must
// leave the device's crashed flag and the sniffer's summary exactly
// where the recorded job left them, for every job a traced run replays.
func TestReplayFidelity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.matrix(7)
			rep, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs := traceJobs(rep)
			if len(jobs) == 0 {
				t.Fatal("no traced jobs")
			}
			crashed := 0
			for _, job := range jobs {
				r, err := record(cfg, job)
				if err != nil {
					t.Fatal(err)
				}
				if r.crashed {
					crashed++
				}
				if err := checkFidelity(r); err != nil {
					t.Error(err)
				}
			}
			if w.findings && crashed == 0 {
				t.Error("no recorded job crashed its device: the crash path went unchecked")
			}
		})
	}
}
