package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"l2fuzz/internal/fleet/wire"
	"l2fuzz/internal/telemetry"
)

// The worker wire protocol, spoken over a length-prefixed JSON framing
// (internal/fleet/wire). A session is: worker sends wireHello,
// coordinator answers with one wireFarm, then any number of wireJob →
// wireResult exchanges until the coordinator closes the worker's stdin
// (clean shutdown). The message structs below are the schema, together
// with the jobRecord and outcome they share with the run journal
// (journal.go): a job and its result cross the wire in the encoding the
// journal writes. A golden test pins their field paths so drift is
// deliberate.
//
// wireVersion pins the protocol. Both sides refuse a peer speaking a
// different version rather than mis-reading its frames. Version 2
// added span context: jobs carry their dispatch offset on the farm
// clock (echoed back as a desync check alongside the index) and
// results carry the worker-measured execution wall time, so the
// coordinator can split a proc job's wall into transport vs execute.
const wireVersion = 2

// wireHello is the worker's opening message.
type wireHello struct {
	Version int `json:"version"`
	PID     int `json:"pid"`
}

// wireFarm is the per-run farm configuration a worker needs: the knobs
// of Config that affect job execution and are not already resolved into
// the jobs themselves.
type wireFarm struct {
	Version          int  `json:"version"`
	MeasurementGrade bool `json:"measurementGrade,omitempty"`
	CampaignRuns     int  `json:"campaignRuns"`
	// Record makes the worker's rigs record repro traces (the
	// coordinator holds a corpus store the worker cannot see).
	Record bool `json:"record,omitempty"`
	// Counters makes the worker tally hot-path telemetry per job and
	// ship the deltas back in each result.
	Counters bool `json:"counters,omitempty"`
}

// wireJob is one job assignment: the job record the journal also
// writes (its resolved target spec inline, so a worker needs no target
// catalog of its own and custom targets work unchanged) plus the span
// context. Variants cross by name only: behaviour hooks cannot cross a
// process boundary, so the worker resolves predefined names via
// VariantByName and treats unknown names as hook-less.
type wireJob struct {
	jobRecord
	// StartedNs is the job's span context: the offset on the farm's
	// monotonic clock at which the coordinator put the job on the wire.
	// The worker has no shared clock, so it cannot extend the span — it
	// echoes the value back in its result, giving the coordinator a
	// second desync check beyond the job index.
	StartedNs time.Duration `json:"startedNs"`
}

// wireResult is one job's outcome — the same outcome record a journal
// job-done record carries, here with the findings' repro traces —
// echoing the job index so the coordinator can detect a desynchronized
// worker.
type wireResult struct {
	Index int `json:"index"`
	outcome
	// StartedNs echoes the job's span context (see wireJob). ExecNs is
	// the execution wall time the worker measured around its own job
	// run — the coordinator subtracts it from the span's wire window to
	// isolate the transport cost.
	StartedNs time.Duration              `json:"startedNs"`
	ExecNs    time.Duration              `json:"execNs"`
	Counters  *telemetry.CounterSnapshot `json:"counters,omitempty"`
}

// RunWorker runs the farm worker loop of a subprocess spawned by
// ProcExecutor: speak the wire protocol on r/w (the process's
// stdin/stdout), executing one job at a time until the coordinator
// closes the job stream. A clean shutdown returns nil; a protocol or
// transport failure returns the error (the coordinator sees the broken
// pipe either way and retires the worker).
func RunWorker(r io.Reader, w io.Writer) error {
	enc := wire.NewEncoder(w)
	dec := wire.NewDecoder(r)
	if err := enc.Encode(wireHello{Version: wireVersion, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("fleet: worker hello: %w", err)
	}
	var fc wireFarm
	if err := dec.Decode(&fc); err != nil {
		return fmt.Errorf("fleet: worker farm config: %w", err)
	}
	if fc.Version != wireVersion {
		return fmt.Errorf("fleet: coordinator speaks wire version %d, this worker version %d", fc.Version, wireVersion)
	}
	for {
		var wj wireJob
		if err := dec.Decode(&wj); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("fleet: worker read job: %w", err)
		}
		if err := enc.Encode(workerRun(fc, wj)); err != nil {
			return fmt.Errorf("fleet: worker write result: %w", err)
		}
	}
}

// workerRun executes one wire job with a per-job config rebuilt from
// the farm message, mirroring what runJob sees under local execution.
func workerRun(fc wireFarm, wj wireJob) wireResult {
	cfg := Config{
		MeasurementGrade: fc.MeasurementGrade,
		CampaignRuns:     fc.CampaignRuns,
		Workers:          1,
		forceRecord:      fc.Record,
	}
	if v, err := VariantByName(wj.Variant); err == nil {
		cfg.Variants = []Variant{v}
	}
	// Unknown variant names resolve to the baseline hooks — the exact
	// behaviour of a hook-less custom variant, whose only job-visible
	// effect is the seed salt already baked into wj.Seed. Hook-carrying
	// custom variants never reach a worker: ProcExecutor.Start rejects
	// them.
	var local *telemetry.Counters
	if fc.Counters {
		local = &telemetry.Counters{}
		cfg.Counters = local
	}
	execStart := time.Now()
	res := runJob(cfg, wj.job())
	wr := wireResult{
		Index:     wj.Index,
		outcome:   outcomeOf(res, true),
		StartedNs: wj.StartedNs,
		ExecNs:    time.Since(execStart),
	}
	if local != nil {
		s := local.Snapshot()
		wr.Counters = &s
	}
	return wr
}
