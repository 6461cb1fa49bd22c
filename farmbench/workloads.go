package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"l2fuzz/internal/fleet"
)

// A workload is one farm matrix, run closed-loop: each worker takes the
// next job only when its previous job finished.
type workload struct {
	name string
	// matrix builds the farm config for one farm seed, without an
	// executor, journal, corpus or counters: those are the per-run
	// plumbing e2e.go adds.
	matrix func(farmSeed int64) fleet.Config
	// proc runs the farm on worker subprocesses with counters, an
	// on-disk journal and a corpus store all on.
	proc bool
	// findings reports whether the matrix is expected to produce any.
	findings bool
}

// nproc is the host's CPU count: the worker budget of every workload.
var nproc = runtime.NumCPU()

// paperKinds are the four fuzzers the paper's Table VII compares.
var paperKinds = []fleet.Kind{fleet.KindL2Fuzz, fleet.KindDefensics, fleet.KindBFuzz, fleet.KindBSS}

var workloads = []workload{
	{
		// Table VI: L2Fuzz against the eight-device catalog, defects
		// armed. At farm seed 7 this is BenchmarkFleet's matrix.
		name:     "armed-catalog",
		findings: true,
		matrix: func(seed int64) fleet.Config {
			return fleet.Config{
				Kinds:            []fleet.Kind{fleet.KindL2Fuzz},
				Shards:           2,
				BaseSeed:         seed,
				Workers:          nproc,
				MaxPacketsPerJob: 50_000,
			}
		},
	},
	{
		// Table VII: the four compared fuzzers against the
		// measurement-grade Pixel 3, one worker — the single-rig stream
		// cmd/l2fuzz users get. Four 50k shards per kind (the paper
		// measures 100k) keep 16 jobs in every farm, so a run's job
		// latency p90 has ten samples beyond it.
		name: "measure-sweep",
		matrix: func(seed int64) fleet.Config {
			return fleet.Config{
				Devices:          []string{"D2"},
				Kinds:            paperKinds,
				Shards:           4,
				BaseSeed:         seed,
				Workers:          1,
				MaxPacketsPerJob: 50_000,
				MeasurementGrade: true,
			}
		},
	},
	{
		// Many short jobs through the full plumbing: every registered
		// kind on every device, the CI `l2farm -exec proc -journal`
		// shape.
		name:     "proc-journal",
		proc:     true,
		findings: true,
		matrix: func(seed int64) fleet.Config {
			return fleet.Config{
				Kinds:            fleet.AllKinds(),
				Shards:           4,
				BaseSeed:         seed,
				Workers:          nproc,
				MaxPacketsPerJob: 300,
				CampaignRuns:     2,
			}
		},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// pinSeeds is the size of the farm-seed table every workload is pinned
// on: farm seeds 1..pinSeeds. A run walks the table from an offset its
// --seed picks, one farm seed per repetition, so every repetition's
// outputs are checked against values recorded from a known-good build.
const pinSeeds = 32

// farmSeed is the farm seed of repetition rep in a run started with
// seed.
func farmSeed(seed int64, rep int) int64 {
	start := ((seed % pinSeeds) + pinSeeds) % pinSeeds
	return 1 + (start+int64(rep))%pinSeeds
}

// kindPin is one fuzzer kind's deterministic traffic in a farm.
type kindPin struct {
	Packets    int      `json:"packets"`
	Malformed  int      `json:"malformed"`
	Rejections int      `json:"rejections"`
	States     []string `json:"states"`
}

// pin is the expected deterministic outcome of one workload at one
// farm seed.
type pin struct {
	TotalPackets int                `json:"totalPackets"`
	Signatures   []string           `json:"signatures"`
	Kinds        map[string]kindPin `json:"kinds,omitempty"`
}

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → farm seed → expected outcome. It is decoded on
// first use, so worker subprocesses never pay for it.
var pins = sync.OnceValues(func() (map[string]map[int64]pin, error) {
	m := map[string]map[int64]pin{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return m, nil
})

// observe extracts the deterministic outcome a pin records from a farm
// report.
func observe(w workload, rep *fleet.Report) pin {
	p := pin{TotalPackets: rep.TotalPackets, Signatures: signatures(rep)}
	if !w.findings {
		p.Kinds = map[string]kindPin{}
		states := map[string]map[string]bool{}
		for _, j := range rep.Jobs {
			k := string(j.Job.Kind)
			kp := p.Kinds[k]
			kp.Packets += j.PacketsSent
			kp.Malformed += j.Summary.Malformed
			kp.Rejections += j.Summary.Rejections
			p.Kinds[k] = kp
			if states[k] == nil {
				states[k] = map[string]bool{}
			}
			for _, s := range j.Summary.States {
				states[k][s] = true
			}
		}
		for k, set := range states {
			kp := p.Kinds[k]
			kp.States = []string{}
			for s := range set {
				kp.States = append(kp.States, s)
			}
			sort.Strings(kp.States)
			p.Kinds[k] = kp
		}
	}
	return p
}

// signatures lists a report's distinct finding signatures, sorted.
func signatures(rep *fleet.Report) []string {
	out := []string{}
	for _, f := range rep.Findings {
		out = append(out, f.Signature.String())
	}
	sort.Strings(out)
	return out
}

// checkReport verifies one farm repetition against its pin and the
// workload's invariants.
func checkReport(w workload, seed int64, rep *fleet.Report) error {
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", rep.Failed, len(rep.Jobs))
	}
	all, err := pins()
	if err != nil {
		return err
	}
	want, ok := all[w.name][seed]
	if !ok {
		return fmt.Errorf("no pin for farm seed %d", seed)
	}
	got := observe(w, rep)
	if got.TotalPackets != want.TotalPackets {
		return fmt.Errorf("farm seed %d: %d packets, pinned %d", seed, got.TotalPackets, want.TotalPackets)
	}
	if !reflect.DeepEqual(got.Signatures, want.Signatures) {
		return fmt.Errorf("farm seed %d: findings %q, pinned %q", seed, got.Signatures, want.Signatures)
	}
	if !w.findings {
		for _, j := range rep.Jobs {
			if j.Crashed {
				return fmt.Errorf("farm seed %d: job %v crashed its device", seed, j.Job)
			}
			if j.PacketsSent < j.Job.MaxPackets {
				return fmt.Errorf("farm seed %d: job %v sent %d of its %d-packet budget", seed, j.Job, j.PacketsSent, j.Job.MaxPackets)
			}
		}
		if !reflect.DeepEqual(got.Kinds, want.Kinds) {
			return fmt.Errorf("farm seed %d: per-kind traffic %+v, pinned %+v", seed, got.Kinds, want.Kinds)
		}
	}
	return nil
}

// writePins runs every workload's matrix in-process at each table farm
// seed and returns the pins file contents. Run it only on a build whose
// outputs are known good: the pins are what later builds are held to.
func writePins() ([]byte, error) {
	all := map[string]map[int64]pin{}
	for _, w := range workloads {
		all[w.name] = map[int64]pin{}
		for s := int64(1); s <= pinSeeds; s++ {
			rep, err := fleet.Run(w.matrix(s))
			if err != nil {
				return nil, err
			}
			if rep.Failed > 0 {
				return nil, fmt.Errorf("%s farm seed %d: %d jobs failed", w.name, s, rep.Failed)
			}
			all[w.name][s] = observe(w, rep)
		}
	}
	return json.MarshalIndent(all, "", " ")
}
