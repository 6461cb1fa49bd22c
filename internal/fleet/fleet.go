package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/corpus"
	"l2fuzz/internal/record"
	"l2fuzz/internal/telemetry"
)

// Kind selects the fuzzer a job runs. Each kind names a registered
// Engine; the registry in engine.go is the single source of truth for
// which kinds exist and how they execute.
type Kind = record.Kind

// The job kinds a farm can schedule: the paper's four compared fuzzers,
// the two §V extensions, and the scenario-diversity engines over the
// SDP and L2CAP state-machine surfaces.
const (
	KindL2Fuzz    Kind = "L2Fuzz"
	KindDefensics Kind = "Defensics"
	KindBFuzz     Kind = "BFuzz"
	KindBSS       Kind = "BSS"
	KindRFCOMM    Kind = "RFCOMM"
	KindCampaign  Kind = "Campaign"
	KindSDP       Kind = "SDP"
	KindSM        Kind = "SM"
)

// Defaults for unset Config fields.
const (
	// DefaultMaxPacketsPerJob bounds one job (one campaign run for
	// KindCampaign). The full library default of 6M packets per job
	// would make an all-robust sweep needlessly slow; a quarter million
	// matches the campaign runner's per-run budget.
	DefaultMaxPacketsPerJob = 250_000
	// DefaultCampaignRuns is the per-job run count for KindCampaign.
	DefaultCampaignRuns = 3
)

// catalogTargets resolves the defect-armed Table V catalog into shared
// target specs, once: every farm's catalog jobs point at these same
// Specs, so equal configs build pointer-identical job lists and a
// catalog rebuild is never paid per farm. Specs are pure data
// (declarative defect descriptors, not closures), so sharing is safe —
// nothing downstream mutates them. MeasurementGrade farms disable the
// defects at rig-build time, not here.
var catalogTargets = func() (m map[string]*device.Spec) {
	m = make(map[string]*device.Spec)
	for _, s := range device.CatalogSpecs(false) {
		spec := s
		m[spec.Name] = &spec
	}
	return m
}()

// Config describes a farm job matrix and how to execute it.
type Config struct {
	// Devices are catalog device IDs (D1..D8). Empty means the whole
	// eight-device Table V testbed — unless CustomDevices supplies the
	// farm's targets instead.
	Devices []string
	// CustomDevices are first-class target specs fuzzed alongside the
	// catalog devices: the matrix's device axis is the concatenation of
	// Devices and CustomDevices, in that order. Spec names key seeds,
	// Budgets and per-device report sections exactly as catalog IDs do,
	// so they must be non-empty, unique, and disjoint from the catalog.
	// Specs are copied at Start; later mutation does not reach the farm.
	CustomDevices []device.Spec
	// Kinds are the fuzzer kinds to run against every device. Empty
	// means KindL2Fuzz only.
	Kinds []Kind
	// Variants are the per-job configuration overrides to run for every
	// (device, kind) cell — the matrix's third axis. Empty means the
	// baseline variant only, which reproduces pre-variant farms
	// byte-identically. See AblationVariants for the paper's §IV-D grid.
	Variants []Variant
	// Shards is the number of seed shards per (device, kind, variant)
	// cell: each shard is an independent job with its own derived seed,
	// so one cell explores Shards distinct mutation streams. Zero means
	// one.
	Shards int
	// BaseSeed drives the whole farm. Every job derives its own seed
	// from (BaseSeed, device, kind, variant, shard), so equal configs
	// give equal farms and distinct jobs get distinct streams.
	BaseSeed int64
	// Workers bounds the worker pool. Zero means GOMAXPROCS.
	Workers int
	// MaxPacketsPerJob caps each job's traffic (frames for KindRFCOMM,
	// packets per campaign run for KindCampaign). Zero means
	// DefaultMaxPacketsPerJob.
	MaxPacketsPerJob int
	// Budgets overrides MaxPacketsPerJob per target name (catalog ID or
	// custom spec name), letting a farm spend its packet budget where
	// the devices need it.
	Budgets map[string]int
	// CampaignRuns is the number of runs per KindCampaign job. Zero
	// means DefaultCampaignRuns.
	CampaignRuns int
	// MeasurementGrade builds targets with their defects disabled, for
	// metrics-only sweeps (the farm analogue of Table VII).
	MeasurementGrade bool
	// Corpus, when set, makes the farm's findings durable: every job
	// records its repro trace, new finding signatures are written to the
	// store as they stream in, and signatures the store already holds
	// are marked Known in the report instead of being announced as new.
	// A later cmd/l2repro (or corpus.Replay) can then reproduce,
	// minimize and triage any stored finding on a fresh rig.
	Corpus *corpus.Store
	// OnJobDone, when set, is called after every job completes, with
	// calls serialized (done counts completed jobs so far, total the
	// matrix size). It must not mutate the result.
	OnJobDone func(res JobResult, done, total int)
	// Counters, when set, receives the farm's hot-path telemetry: frame
	// and byte counts from the rigs' radio media, packet and mutation
	// counts from the fuzzer cores, and job/finding counts from the
	// worker loop. Share the same Counters with a telemetry server to
	// watch the farm live. Traffic counts batch per job — each job tallies
	// into a private Counters merged in at job end, keeping shared cache
	// lines off the per-packet path — while job and finding counts land
	// as they happen.
	Counters *telemetry.Counters
	// Journal, when set, persists the farm run as structured JSONL: a
	// farm header at Start, then every job start, job result and fresh
	// finding in emission order. ReplayJournal folds a persisted stream
	// back into the Report the live farm produced. Journal write errors
	// never stop the farm; check Journal.Err after the run. Start
	// re-bases the journal's record offsets onto the farm's own start
	// time, so samples, events and job trace spans share one monotonic
	// clock origin.
	Journal *telemetry.Journal
	// SampleInterval is how often the run's counter sampler writes
	// RecordSample records into the Journal. The farm itself runs no
	// sampler — the caller that does (cmd/l2farm) sets this to the
	// interval it starts the sampler with, and the farm records it in
	// the journal header so an analyzer can label the sampled series'
	// time axis honestly. Zero omits it from the header.
	SampleInterval time.Duration
	// Executor, when set, runs the farm's jobs: the in-process pool
	// (LocalExecutor, the default when nil) or subprocess workers
	// (ProcExecutor). The farm owns its lifecycle — Start before the
	// first job, Close after the last is accounted for. Both executors
	// render byte-identical reports from equal configs.
	Executor Executor

	// targets is the resolved device axis — catalog specs for Devices
	// entries followed by owned copies of CustomDevices — populated by
	// withDefaults. Jobs carry pointers into it.
	targets []*device.Spec
	// forceRecord makes rigs record repro traces without a Corpus: set
	// on proc workers whose coordinator holds the store, never by
	// callers.
	forceRecord bool
	// epoch is the farm's span clock origin — the Start timestamp —
	// against which executors stamp JobResult.Span offsets. Zero on
	// configs that never went through Start (replay, hand-built
	// aggregators), whose spans then stay zero.
	epoch time.Time
}

// recordTraces reports whether jobs should record repro traces: the
// farm has a store to persist them into, or this process is a proc
// worker whose coordinator does.
func (c Config) recordTraces() bool { return c.Corpus != nil || c.forceRecord }

// withDefaults fills unset fields, validates the matrix, and resolves
// the device axis into the target list.
func (c Config) withDefaults() (Config, error) {
	if len(c.Devices) == 0 && len(c.CustomDevices) == 0 {
		c.Devices = device.CatalogIDs()
	}
	c.targets = nil
	seen := make(map[string]bool)
	for _, id := range c.Devices {
		spec, ok := catalogTargets[id]
		if !ok {
			return c, fmt.Errorf("fleet: no catalog entry %q (non-catalog targets go in CustomDevices)", id)
		}
		if seen[id] {
			return c, fmt.Errorf("fleet: duplicate device %q in matrix", id)
		}
		seen[id] = true
		c.targets = append(c.targets, spec)
	}
	for i, spec := range c.CustomDevices {
		if err := spec.Validate(); err != nil {
			return c, fmt.Errorf("fleet: custom device %d: %w", i, err)
		}
		if _, catalog := catalogTargets[spec.Name]; catalog {
			return c, fmt.Errorf("fleet: custom device %d: name %q collides with a Table V catalog ID", i, spec.Name)
		}
		if seen[spec.Name] {
			return c, fmt.Errorf("fleet: duplicate target %q in matrix", spec.Name)
		}
		seen[spec.Name] = true
		owned := spec.Clone()
		c.targets = append(c.targets, &owned)
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []Kind{KindL2Fuzz}
	}
	seenKind := make(map[Kind]bool)
	for _, k := range c.Kinds {
		if _, ok := EngineFor(k); !ok {
			return c, fmt.Errorf("fleet: unknown fuzzer kind %q", k)
		}
		if seenKind[k] {
			return c, fmt.Errorf("fleet: duplicate fuzzer kind %q in matrix", k)
		}
		seenKind[k] = true
	}
	if len(c.Variants) == 0 {
		c.Variants = []Variant{BaselineVariant()}
	}
	seenVariant := make(map[string]bool)
	for _, v := range c.Variants {
		if v.Name == "" {
			return c, fmt.Errorf("fleet: variant with empty name in matrix")
		}
		if seenVariant[v.Name] {
			return c, fmt.Errorf("fleet: duplicate variant %q in matrix", v.Name)
		}
		seenVariant[v.Name] = true
	}
	for id, b := range c.Budgets {
		if !seen[id] {
			return c, fmt.Errorf("fleet: budget for %q, which is not in the target matrix", id)
		}
		if b <= 0 {
			return c, fmt.Errorf("fleet: non-positive budget %d for %q", b, id)
		}
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxPacketsPerJob <= 0 {
		c.MaxPacketsPerJob = DefaultMaxPacketsPerJob
	}
	if c.CampaignRuns <= 0 {
		c.CampaignRuns = DefaultCampaignRuns
	}
	return c, nil
}

// budget resolves the packet budget for one target name. Budgets
// entries are validated positive and in-matrix by withDefaults.
func (c Config) budget(target string) int {
	if b, ok := c.Budgets[target]; ok {
		return b
	}
	return c.MaxPacketsPerJob
}

// variant resolves a job's variant by name. Names are validated unique
// and present by withDefaults; an unknown name (a hand-built Job) falls
// back to the baseline.
func (c Config) variant(name string) Variant {
	for _, v := range c.Variants {
		if v.Name == name {
			return v
		}
	}
	return BaselineVariant()
}

// Job is one cell×shard of the matrix: one fuzzer kind under one
// configuration variant against one target with one derived seed.
type Job struct {
	// Index is the job's position in the matrix enumeration
	// (device-major, then kind, then variant, then shard).
	Index int
	// Device is the target name: a catalog ID ("D1".."D8") or a custom
	// spec name. Seeds, budgets and report sections key by it.
	Device string
	// Spec is the resolved target spec the job runs against. Catalog
	// jobs share the package-wide catalog specs; treat it as read-only.
	// Specs are pure data — defect triggers are declarative descriptors,
	// not closures — so the spec serializes with the job: the proc
	// executor ships it to worker subprocesses inline, and the telemetry
	// endpoint's report snapshots carry it.
	Spec *device.Spec `json:",omitempty"`
	// Kind is the fuzzer kind.
	Kind Kind
	// Variant names the job's configuration variant.
	Variant string
	// Shard is the seed shard, 0..Shards-1.
	Shard int
	// Seed is the derived job seed.
	Seed int64
	// MaxPackets is the job's resolved traffic budget.
	MaxPackets int
}

func (j Job) String() string {
	if j.Variant == VariantBaseline || j.Variant == "" {
		return fmt.Sprintf("%s×%s/%d", j.Device, j.Kind, j.Shard)
	}
	return fmt.Sprintf("%s×%s[%s]/%d", j.Device, j.Kind, j.Variant, j.Shard)
}

// jobSeed derives a job's seed from the farm seed and the job
// coordinates. The derivation is a pure function of its arguments, so
// seeds do not depend on matrix shape or worker scheduling. The device
// salt is the target name — catalog IDs hash exactly as they did when
// they were the only device axis, so catalog-only farms reproduce
// historical reports. The baseline variant contributes no salt: its
// jobs keep the pre-variant derivation for the same reason.
func jobSeed(base int64, target string, kind Kind, variant string, shard int) int64 {
	h := fnv.New64a()
	h.Write([]byte(target))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	if variant != VariantBaseline && variant != "" {
		h.Write([]byte{0})
		h.Write([]byte(variant))
	}
	mixed := base
	mixed ^= int64(h.Sum64() & 0x7FFF_FFFF_FFFF_FFFF)
	mixed += int64(shard) * 0x5DEECE66D // spread shards across the stream
	// Clear the sign bit rather than negating: -math.MinInt64 is still
	// math.MinInt64, so a negation could leak a negative seed.
	return mixed & math.MaxInt64
}

// buildJobs enumerates the matrix in deterministic device-major order
// over the resolved target list.
func buildJobs(cfg Config) []Job {
	var jobs []Job
	for _, tgt := range cfg.targets {
		for _, kind := range cfg.Kinds {
			for _, v := range cfg.Variants {
				for shard := 0; shard < cfg.Shards; shard++ {
					jobs = append(jobs, Job{
						Index:      len(jobs),
						Device:     tgt.Name,
						Spec:       tgt,
						Kind:       kind,
						Variant:    v.Name,
						Shard:      shard,
						Seed:       jobSeed(cfg.BaseSeed, tgt.Name, kind, v.Name, shard),
						MaxPackets: cfg.budget(tgt.Name),
					})
				}
			}
		}
	}
	return jobs
}

// Run executes the farm: every job of the matrix on a pool of
// cfg.Workers workers, aggregated into one Report. It is a thin wrapper
// over the streaming core — Start the farm, drain its event stream
// (feeding cfg.OnJobDone from the JobDone events), return the final
// snapshot — so batch and streaming consumers share one aggregation
// path. The error return covers matrix validation only; individual job
// failures are recorded in their JobResult and counted in
// Report.Failed.
func Run(cfg Config) (*Report, error) {
	farm, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	for ev := range farm.Events() {
		if ev.Type == EventJobDone && cfg.OnJobDone != nil {
			cfg.OnJobDone(*ev.Result, ev.Done, ev.Total)
		}
	}
	return farm.Wait(), nil
}
