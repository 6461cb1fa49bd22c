// Command farmbench is the repository's benchmark: it drives the fuzzing
// farm from outside, through fleet.Start and its event stream, on one of
// three closed-loop workloads, checks every farm's outputs against
// seed-pinned values, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
//	bash farmbench/run.sh --workload armed-catalog --seed 1 --seconds 30 --trace 0
//
// Run from the repository root. run.sh builds the binary under
// .bench_build; the binary re-executes itself as the proc workload's
// farm worker. BENCHMARK.json describes the workloads and metrics, and
// farmbench/METRICS.md maps each per-layer metric to the end-to-end
// metrics and workloads it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"l2fuzz/internal/fleet"
)

// scratchDir holds the proc workload's journals and corpora and the
// traced run's journal and corpus files while they are measured. It is
// relative to the repository root, where run.sh starts the binary.
const scratchDir = ".bench_build/tmp"

func main() {
	if os.Getenv(workerEnv) == "1" {
		if err := fleet.RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: armed-catalog, measure-sweep or proc-journal")
	seed := flag.Int64("seed", 1, "workload seed: picks the run's walk through the pinned farm-seed table")
	secs := flag.Int("seconds", 30, "measuring window in seconds (warm-up runs before it)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	pinOut := flag.String("write-pins", "", "regenerate the pin table into this file and exit")
	flag.Parse()

	if *pinOut != "" {
		data, err := writePins()
		if err == nil {
			err = os.WriteFile(*pinOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "farmbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1, scratchDir); err != nil {
		fmt.Fprintln(os.Stderr, "farmbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, window time.Duration, traced bool, tmp string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	fmt.Printf("# farmbench workload=%s seed=%d seconds=%v trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		name, seed, window.Seconds(), traced, nproc, runtime.GOMAXPROCS(0), runtime.Version())

	var metrics []metric
	var attempted, failed int
	var checkErr error
	if traced {
		metrics, attempted, failed, checkErr = perLayer(w, seed, window, tmp)
	} else {
		// Warm-up: the first farms of a process run measurably slower
		// (heap growth, pool fill), so a fifth of the window runs
		// checked but unmeasured repetitions first.
		metrics, attempted, failed, checkErr = endToEnd(w, seed, window, window/5, tmp)
	}
	res := result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if checkErr != nil {
		fmt.Printf("# CHECK FAILED: %v\n", checkErr)
		res.Attempted = max(res.Attempted, 1)
		res.Failed = max(res.Failed, 1)
	}
	for _, m := range metrics {
		fmt.Printf("# %-28s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n", m.name, m.sum.Median, m.unit, m.sum.Q1, m.sum.Q3, m.sum.N)
		res.Metrics[m.name] = value{Value: m.sum.Median, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if checkErr != nil {
		return fmt.Errorf("correctness check failed: %w", checkErr)
	}
	return nil
}
