package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/core"
	"l2fuzz/internal/metrics"
	"l2fuzz/internal/record"
	"l2fuzz/internal/telemetry"
)

// journalVersion pins the farm record schema. ReplayJournal refuses a
// journal written under a different version rather than silently
// misfolding it. Version 2 added the encoded target spec to job
// records, the executor worker id to result records, and the worker
// lifecycle record. Version 3 added the per-job trace span to result
// records and the counter-sample interval to the header, and re-based
// every record's envelope offset onto the farm's start time.
const journalVersion = 3

// The farm's journal record types. A journal additionally carries
// telemetry.RecordSample records when the writer runs a counter
// sampler; replay ignores them. The record payloads are built from the
// dependency-free types of internal/record (the farm header, job
// coordinates, span, summary and worker change) plus the wrappers below
// that add what names simulator types: the target spec and the
// findings. The worker wire protocol carries the same jobRecord and
// outcome, so a job result has one encoding.
const (
	recFarm       = "farm"
	recJobStarted = "job-started"
	recJobDone    = "job-done"
	recFinding    = "finding"
	recWorker     = "worker"
)

// jobRecord is a Job as the wire and the journal carry it: the job's
// coordinates plus its resolved target spec inline. Specs are pure data
// (declarative defect descriptors), so the journal embeds the full spec
// and is self-describing — a reader needs no catalog to know exactly
// what configuration each job fuzzed — and a worker subprocess needs no
// target catalog of its own. Replay ignores the field and resolves
// specs from the config's target list, which keeps the replayed
// report's Spec pointers identical to a live farm's.
type jobRecord struct {
	record.Job
	Spec *device.Spec `json:"spec,omitempty"`
}

func jobRecordOf(j Job) jobRecord {
	return jobRecord{
		Job: record.Job{
			Index:      j.Index,
			Device:     j.Device,
			Kind:       j.Kind,
			Variant:    j.Variant,
			Shard:      j.Shard,
			Seed:       j.Seed,
			MaxPackets: j.MaxPackets,
		},
		Spec: j.Spec,
	}
}

func (r jobRecord) job() Job {
	return Job{
		Index:      r.Index,
		Device:     r.Device,
		Spec:       r.Spec,
		Kind:       r.Kind,
		Variant:    r.Variant,
		Shard:      r.Shard,
		Seed:       r.Seed,
		MaxPackets: r.MaxPackets,
	}
}

// occurrenceRecord is one finding occurrence. The repro trace travels
// in its own fields: core.Finding excludes Trace from JSON (report
// snapshots must not embed traces), but the coordinator's corpus store
// needs the worker-recorded ops, so the wire carries them explicitly.
// The journal never fills them — repro traces are store-owned.
type occurrenceRecord struct {
	Finding        core.Finding   `json:"finding"`
	Trace          []host.TraceOp `json:"trace,omitempty"`
	TraceTruncated bool           `json:"traceTruncated,omitempty"`
	Count          int            `json:"count"`
	Dump           string         `json:"dump,omitempty"`
}

// outcome is the part of a JobResult the executing side produces,
// carried identically by the wire's wireResult and the journal's
// job-done record.
type outcome struct {
	Err         string             `json:"err,omitempty"`
	PacketsSent int                `json:"packetsSent"`
	ElapsedNs   time.Duration      `json:"elapsedNs"`
	Crashed     bool               `json:"crashed,omitempty"`
	Findings    []occurrenceRecord `json:"findings,omitempty"`
	Summary     metrics.Summary    `json:"summary"`
}

// outcomeOf encodes a result's outcome; traces selects whether the
// findings' repro traces ride along (the wire) or not (the journal).
func outcomeOf(res JobResult, traces bool) outcome {
	o := outcome{
		PacketsSent: res.PacketsSent,
		ElapsedNs:   res.Elapsed,
		Crashed:     res.Crashed,
		Summary:     res.Summary,
	}
	if res.Err != nil {
		o.Err = res.Err.Error()
	}
	for _, occ := range res.Findings {
		rec := occurrenceRecord{Finding: occ.Finding, Count: occ.Count, Dump: occ.Dump}
		if traces {
			rec.Trace, rec.TraceTruncated = occ.Finding.Trace, occ.Finding.TraceTruncated
		}
		o.Findings = append(o.Findings, rec)
	}
	return o
}

// result decodes the outcome back into job's JobResult, folding any
// carried repro traces back into the findings so corpus persistence
// works unchanged.
func (o outcome) result(job Job) JobResult {
	res := JobResult{
		Job:         job,
		PacketsSent: o.PacketsSent,
		Elapsed:     o.ElapsedNs,
		Crashed:     o.Crashed,
		Summary:     o.Summary,
	}
	if o.Err != "" {
		res.Err = errors.New(o.Err)
	}
	for _, occ := range o.Findings {
		f := occ.Finding
		f.Trace, f.TraceTruncated = occ.Trace, occ.TraceTruncated
		res.Findings = append(res.Findings, Occurrence{Finding: f, Count: occ.Count, Dump: occ.Dump})
	}
	return res
}

type journalStarted struct {
	Job   jobRecord `json:"job"`
	Done  int       `json:"done"`
	Total int       `json:"total"`
}

type journalResult struct {
	Job    jobRecord `json:"job"`
	Worker string    `json:"worker,omitempty"`
	outcome
	WallNs time.Duration `json:"wallNs"`
	Span   Span          `json:"span"`
	Done   int           `json:"done"`
	Total  int           `json:"total"`
}

type journalFinding struct {
	Record FindingRecord `json:"record"`
	Job    jobRecord     `json:"job"`
	Done   int           `json:"done"`
	Total  int           `json:"total"`
}

// journalWorker is one worker lifecycle change with the farm's job
// counts at that moment.
type journalWorker struct {
	record.Worker
	Done  int `json:"done"`
	Total int `json:"total"`
}

// journalHeader writes the run header at Start.
func (f *Farm) journalHeader(jobs []Job) {
	if f.cfg.Journal == nil {
		return
	}
	hdr := record.Farm{
		Version:        journalVersion,
		Jobs:           len(jobs),
		Workers:        f.cfg.Workers,
		BaseSeed:       f.cfg.BaseSeed,
		Shards:         f.cfg.Shards,
		Kinds:          f.cfg.Kinds,
		SampleInterval: f.cfg.SampleInterval,
	}
	for _, t := range f.cfg.targets {
		hdr.Targets = append(hdr.Targets, t.Name)
	}
	for _, v := range f.cfg.Variants {
		hdr.Variants = append(hdr.Variants, v.Name)
	}
	f.cfg.Journal.Write(recFarm, hdr)
}

// journalStarted, journalResult and journalFinding record the event
// stream; all three run under emitMu, so journal order matches event
// order. Write errors latch inside the journal and never stop the farm.
func (f *Farm) journalStarted(job Job) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(recJobStarted, journalStarted{Job: jobRecordOf(job), Done: f.done, Total: f.total})
}

func (f *Farm) journalResult(res JobResult) {
	if f.cfg.Journal == nil {
		return
	}
	jr := journalResult{
		Job:     jobRecordOf(res.Job),
		Worker:  res.Worker,
		outcome: outcomeOf(res, false),
		WallNs:  res.Wall,
		Span:    res.Span,
		Done:    f.done,
		Total:   f.total,
	}
	f.cfg.Journal.Write(recJobDone, jr)
}

func (f *Farm) journalFinding(rec FindingRecord, job Job) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(recFinding, journalFinding{Record: rec, Job: jobRecordOf(job), Done: f.done, Total: f.total})
}

func (f *Farm) journalWorker(ev WorkerEvent) {
	if f.cfg.Journal == nil {
		return
	}
	f.cfg.Journal.Write(recWorker, journalWorker{Worker: record.Worker{Worker: ev.Worker, Up: ev.Up, Err: ev.Err}, Done: f.done, Total: f.total})
}

// ReplayJournal folds a persisted run journal back into a Report, using
// the same Aggregator the live farm used, so the replayed report equals
// the live one field for field — job results (including per-job wall
// times and trace spans, which are read from the journal, not
// re-measured), breakdown tables, merged metrics and de-duplicated
// findings. Only the top-level
// Wall is zero: the farm stamps it from its own clock, which a replay
// does not have.
//
// cfg must be the configuration the journal was written under; the
// journal's header is checked against the matrix it builds. Replay is a
// pure re-fold: Corpus, Journal, Counters and OnJobDone are stripped,
// so replaying never writes store entries — which also means the Known
// flags of a corpus-backed run are not reconstructed (a replayed report
// marks every finding new). Repro traces are store-owned and never
// journaled, so replayed findings carry none.
func ReplayJournal(cfg Config, r io.Reader) (*Report, error) {
	cfg.Corpus = nil
	cfg.Journal = nil
	cfg.Counters = nil
	cfg.OnJobDone = nil
	cfg.Executor = nil
	rcfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	jobs := buildJobs(rcfg)
	agg := newAggregator(rcfg, len(jobs))
	specs := make(map[string]*device.Spec, len(rcfg.targets))
	for _, t := range rcfg.targets {
		specs[t.Name] = t
	}
	sawHeader := false
	err = telemetry.DecodeJournal(r, func(rec telemetry.Record) error {
		switch rec.Type {
		case recFarm:
			var hdr record.Farm
			if err := json.Unmarshal(rec.Data, &hdr); err != nil {
				return fmt.Errorf("fleet: farm record: %w", err)
			}
			if hdr.Version != journalVersion {
				return fmt.Errorf("fleet: journal schema version %d, this build reads %d", hdr.Version, journalVersion)
			}
			if hdr.Jobs != len(jobs) {
				return fmt.Errorf("fleet: journal covers %d jobs but the config builds a %d-job matrix — wrong config for this journal", hdr.Jobs, len(jobs))
			}
			sawHeader = true
		case recJobDone:
			if !sawHeader {
				return errors.New("fleet: journal carries results before its farm header")
			}
			var jr journalResult
			if err := json.Unmarshal(rec.Data, &jr); err != nil {
				return fmt.Errorf("fleet: job-done record: %w", err)
			}
			res := jr.result(jr.Job.job())
			res.Job.Spec = specs[res.Job.Device]
			res.Worker, res.Wall, res.Span = jr.Worker, jr.WallNs, jr.Span
			agg.Add(res)
		}
		// job-started, finding, worker and sample records carry no
		// state the fold does not reconstruct; they exist for progress
		// curves and farm forensics.
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("fleet: not a farm journal (no farm header record)")
	}
	return agg.Snapshot(), nil
}
