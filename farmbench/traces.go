package main

import (
	"fmt"
	"reflect"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/hci"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sdp"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/metrics"
	"l2fuzz/internal/testbed"
)

// recorded is one farm job re-run on a recording rig: the operation
// trace the per-layer measurements replay, and the outcome a faithful
// replay must reproduce.
type recorded struct {
	job     fleet.Job
	opts    testbed.Options
	ops     []host.TraceOp
	crashed bool
	summary metrics.Summary
	// frags holds each send op's HCI ACL fragments, marshaled; filled
	// by fragment for the radio-level measurements.
	frags [][][]byte
}

// fragment splits every sent frame into the marshaled ACL fragments a
// controller would put on the air.
func (r *recorded) fragment() {
	r.frags = make([][][]byte, len(r.ops))
	for i, op := range r.ops {
		if op.Kind != host.TraceSend {
			continue
		}
		for _, f := range hci.Fragment(1, op.Data, hci.DefaultACLBufferSize) {
			r.frags[i] = append(r.frags[i], f.AppendTo(nil))
		}
	}
}

// traceJobs picks the jobs a traced run replays: shard 0 of every
// (device, kind) cell. RFCOMM jobs are left out because they fuzz
// through the RFCOMM mux, not the L2CAP signaling path the layers below
// time, and Campaign jobs because their runner resets the device
// between runs, which no trace op records.
func traceJobs(rep *fleet.Report) []fleet.Job {
	var out []fleet.Job
	for _, r := range rep.Jobs {
		j := r.Job
		if j.Shard == 0 && j.Kind != fleet.KindRFCOMM && j.Kind != fleet.KindCampaign {
			out = append(out, j)
		}
	}
	return out
}

// record re-runs job through its registered engine on a fresh rig with
// a trace recorder attached, the way the farm wires a recording rig.
func record(cfg fleet.Config, job fleet.Job) (recorded, error) {
	eng, ok := fleet.EngineFor(job.Kind)
	if !ok {
		return recorded{}, fmt.Errorf("no engine for kind %q", job.Kind)
	}
	opts := testbed.Options{DisableVulns: cfg.MeasurementGrade, TesterName: "farm-worker"}
	rec := opts
	rec.Record = true
	rec.RecordLimit = 4*job.MaxPackets + 1<<16
	rig, err := testbed.New(*job.Spec, rec)
	if err != nil {
		return recorded{}, err
	}
	var res fleet.JobResult
	eng.Run(cfg, rig, job, fleet.BaselineVariant(), &res)
	if res.Err != nil {
		return recorded{}, fmt.Errorf("record %v: %w", job, res.Err)
	}
	ops, truncated := rig.Recorder.Snapshot()
	if truncated {
		return recorded{}, fmt.Errorf("record %v: trace truncated", job)
	}
	return recorded{job: job, opts: opts, ops: ops, crashed: rig.Device.Crashed(), summary: rig.Sniffer.Summary()}, nil
}

// checkFidelity replays r op by op on a fresh rig, as corpus.Replay
// does, and reports whether the device and the sniffer end where the
// recorded job left them. The summaries compare
// on every count, ratio and visited state; the simulated capture span
// and the rate derived from it are left out, because a trace records
// what went on the air, not how the fuzzer paced the simulated clock
// between sends.
func checkFidelity(r recorded) error {
	rig, err := testbed.New(*r.job.Spec, r.opts)
	if err != nil {
		return err
	}
	replayOps(rig, r.ops, nil, nil, nil)
	if got := rig.Device.Crashed(); got != r.crashed {
		return fmt.Errorf("replay of %v: device crashed=%v, recorded job crashed=%v", r.job, got, r.crashed)
	}
	if got, want := untimed(rig.Sniffer.Summary()), untimed(r.summary); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replay of %v: sniffer summary %+v, recorded job %+v", r.job, got, want)
	}
	return nil
}

func untimed(s metrics.Summary) metrics.Summary {
	s.Span, s.PacketsPerSecond = 0, 0
	return s
}

// deviceConfig is the device configuration testbed.New builds for a
// non-RFCOMM rig, for the layer measurements that put a real device on
// a bare medium without the tester client.
func deviceConfig(spec device.Spec, disableVulns bool) device.Config {
	cfg := spec.Config
	if disableVulns {
		cfg.DisableVulns = true
	}
	if spec.ExpectVuln && !cfg.DisableVulns && cfg.SDPDefect == nil {
		cfg.SDPDefect = sdp.OverreadDefect()
	}
	return cfg
}

// stubEndpoint is a radio endpoint that accepts pages and discards
// every frame: the far side of a carry whose own cost must not count.
type stubEndpoint struct{ addr radio.BDAddr }

func (s stubEndpoint) Address() radio.BDAddr                   { return s.addr }
func (stubEndpoint) ReceiveFrame(radio.BDAddr, []byte)         {}
func (stubEndpoint) Connectable() bool                         { return true }
func (stubEndpoint) Discoverable() (radio.InquiryResult, bool) { return radio.InquiryResult{}, false }
