// Package record holds the farm's job-record types: the plain data of a
// job result once it leaves the rig that produced it. The fleet's worker
// wire protocol, its journal writer and replay, and the journal analyzer
// all encode, decode and fold through these types, so a job result has
// one encoding. The package imports only the standard library, which
// lets the analyzer read journals without pulling in the simulator; a
// type that names a simulator type (a target spec, a core finding) stays
// with its owner and wraps these records there.
package record

import "time"

// Kind selects the fuzzer a job runs. Each kind names an engine
// registered with the fleet; its registry is the single source of
// truth for which kinds exist and how they execute.
type Kind string

// Job identifies one matrix cell and shard: a job's coordinates and
// resolved packet budget, without its target spec. The fields mean
// what fleet.Job's do.
type Job struct {
	Index      int    `json:"index"`
	Device     string `json:"device"`
	Kind       Kind   `json:"kind"`
	Variant    string `json:"variant"`
	Shard      int    `json:"shard"`
	Seed       int64  `json:"seed"`
	MaxPackets int    `json:"maxPackets"`
}

// Farm is the run header: enough of the matrix shape to sanity-check a
// replay config against the journal it is asked to fold.
type Farm struct {
	Version  int      `json:"version"`
	Jobs     int      `json:"jobs"`
	Workers  int      `json:"workers"`
	BaseSeed int64    `json:"baseSeed"`
	Targets  []string `json:"targets"`
	Kinds    []Kind   `json:"kinds"`
	Variants []string `json:"variants"`
	Shards   int      `json:"shards"`
	// SampleInterval is how often the run's counter sampler wrote
	// sample records, when the writer declared it; an analyzer labels
	// the sampled series' time axis with it. Zero means unknown or no
	// sampler.
	SampleInterval time.Duration `json:"sampleIntervalNs,omitempty"`
}

// Worker is one executor worker lifecycle change. Replay ignores these
// records — they exist for post-hoc farm forensics (which worker died
// when, under which job counts).
type Worker struct {
	Worker string `json:"worker"`
	Up     bool   `json:"up"`
	Err    string `json:"err,omitempty"`
}
