package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/telemetry"
)

// workerEnv marks a re-execution of this binary as a farm worker
// subprocess (see main).
const workerEnv = "FARMBENCH_WORKER"

// rep is the measurement of one farm repetition.
type rep struct {
	report   *fleet.Report
	farmSeed int64
	// wall runs from constructing the executor, journal and corpus to
	// the farm's final report; setup to the first EventJobStarted;
	// findings to the last EventNewFinding (the whole wall when the
	// farm found nothing).
	wall, setup, findings time.Duration
	// cpu is user+sys time of this process and its reaped children.
	cpu time.Duration
	// allocBytes is heap allocation by this process.
	allocBytes uint64
	// steal is the share of the host's CPU time the hypervisor gave to
	// other guests during the repetition (see hostSteal).
	steal float64
}

// hostSteal reads the host-wide CPU time counters of /proc/stat: the
// time stolen by the hypervisor and the total over all states, in
// clock ticks. ok is false where the counters are unavailable.
func hostSteal() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// cpuTime reads user+sys CPU of this process plus reaped children.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}

// runRep runs one farm repetition of w at farmSeed and checks its
// outputs. tmp is a scratch directory for the proc workload's journal
// and corpus, removed before returning.
func runRep(w workload, farmSeed int64, tmp string) (rep, error) {
	r := rep{farmSeed: farmSeed}
	var exe, dir string
	if w.proc {
		var err error
		if exe, err = os.Executable(); err != nil {
			return r, err
		}
		if dir, err = os.MkdirTemp(tmp, w.name+"-"); err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	steal0, total0, stealOK := hostSteal()
	start := time.Now()

	cfg := w.matrix(farmSeed)
	var journal *telemetry.Journal
	var store *corpus.Store
	if w.proc {
		cfg.Executor = fleet.NewProcExecutor(fleet.ProcConfig{
			Procs:   nproc,
			Command: []string{exe},
			Env:     []string{workerEnv + "=1"},
		})
		var err error
		if journal, err = telemetry.OpenJournal(filepath.Join(dir, "journal")); err != nil {
			return r, err
		}
		if store, err = corpus.Open(filepath.Join(dir, "corpus")); err != nil {
			journal.Close()
			return r, err
		}
		cfg.Journal = journal
		cfg.Corpus = store
		cfg.Counters = &telemetry.Counters{}
	} else {
		cfg.Executor = &fleet.LocalExecutor{}
	}
	farm, err := fleet.Start(cfg)
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return r, err
	}
	var lastFinding time.Time
	for ev := range farm.Events() {
		switch ev.Type {
		case fleet.EventJobStarted:
			if r.setup == 0 {
				r.setup = ev.Time.Sub(start)
			}
		case fleet.EventNewFinding:
			lastFinding = ev.Time
		}
	}
	r.report = farm.Wait()
	r.wall = time.Since(start)
	r.findings = r.wall
	if !lastFinding.IsZero() {
		r.findings = lastFinding.Sub(start)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return r, fmt.Errorf("journal: %w", err)
		}
	}
	r.cpu = cpuTime() - cpu0
	if steal1, total1, ok := hostSteal(); stealOK && ok && total1 > total0 {
		r.steal = (steal1 - steal0) / (total1 - total0)
	}
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	if err := checkReport(w, farmSeed, r.report); err != nil {
		return r, err
	}
	if w.proc {
		if err := checkJournalAndCorpus(w, farmSeed, r.report, journal.Dir(), store); err != nil {
			return r, fmt.Errorf("farm seed %d: %w", farmSeed, err)
		}
	}
	return r, nil
}

// checkJournalAndCorpus verifies the proc workload's durable outputs:
// the journal just written replays to the live report, and the corpus
// holds exactly one entry per finding signature.
func checkJournalAndCorpus(w workload, farmSeed int64, live *fleet.Report, journalDir string, store *corpus.Store) error {
	f, err := os.Open(filepath.Join(journalDir, telemetry.JournalFile))
	if err != nil {
		return err
	}
	defer f.Close()
	replayed, err := fleet.ReplayJournal(w.matrix(farmSeed), f)
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	// The replay is a pure re-fold: it carries no corpus statistics and
	// no repro traces (those are store-owned), so compare everything
	// else.
	got := *live
	got.Corpus = nil
	got.Findings = stripTraces(got.Findings)
	got.Jobs = append([]fleet.JobResult(nil), live.Jobs...)
	for i := range got.Jobs {
		got.Jobs[i].Findings = stripOccTraces(got.Jobs[i].Findings)
	}
	got.ScrubWall()
	replayed.ScrubWall()
	if !reflect.DeepEqual(&got, replayed) {
		return fmt.Errorf("journal replay differs from the live report")
	}
	keys, err := store.Keys()
	if err != nil {
		return err
	}
	var want []string
	for _, rec := range live.Findings {
		want = append(want, corpus.KeyOf(rec.Signature))
	}
	sort.Strings(want)
	if !reflect.DeepEqual(keys, want) {
		return fmt.Errorf("corpus keys %q, report signatures %q", keys, want)
	}
	return nil
}

func stripTraces(recs []fleet.FindingRecord) []fleet.FindingRecord {
	out := append([]fleet.FindingRecord(nil), recs...)
	for i := range out {
		out[i].Finding.Trace = nil
		out[i].Finding.TraceTruncated = false
	}
	return out
}

func stripOccTraces(occs []fleet.Occurrence) []fleet.Occurrence {
	out := append([]fleet.Occurrence(nil), occs...)
	for i := range out {
		out[i].Finding.Trace = nil
		out[i].Finding.TraceTruncated = false
	}
	return out
}

// metric is one reported figure.
type metric struct {
	name, unit string
	sum        summary
}

// endToEnd runs w closed-loop: warm-up repetitions first (checked, not
// measured), then repetitions until the measuring window closes. Each
// repetition uses the next farm seed of the pin table. It returns the
// end-to-end metrics plus the job and failure counts.
//
// On a shared host the hypervisor steals CPU time in bursts, and a
// repetition it hit runs slower for reasons outside the program. So the
// timed metrics come from the least-stolen half of the measured
// repetitions (see leastStolen); every measured repetition is still
// checked and counted in attempted and failed.
func endToEnd(w workload, seed int64, window, warmup time.Duration, tmp string) ([]metric, int, int, error) {
	i := 0
	for deadline := time.Now().Add(warmup); i == 0 || time.Now().Before(deadline); i++ {
		if _, err := runRep(w, farmSeed(seed, i), tmp); err != nil {
			return nil, 0, 0, err
		}
	}
	var reps []rep
	for deadline := time.Now().Add(window); len(reps) < 6 || time.Now().Before(deadline); i++ {
		r, err := runRep(w, farmSeed(seed, i), tmp)
		if err != nil {
			return nil, 0, 0, err
		}
		reps = append(reps, r)
	}

	jobs, failed := 0, 0
	var setup, steal []float64
	for _, r := range reps {
		jobs += len(r.report.Jobs)
		failed += r.report.Failed
		// Set-up lasts microseconds to milliseconds, too short for its
		// repetition's steal share to say anything about it: every
		// measured repetition counts.
		setup = append(setup, r.setup.Seconds())
		steal = append(steal, r.steal)
	}
	kept := leastStolen(reps)
	var keptSteal []float64
	var pps, jps, cpu, alloc, lat []float64
	for _, r := range kept {
		n := len(r.report.Jobs)
		pkts := float64(r.report.TotalPackets)
		keptSteal = append(keptSteal, r.steal)
		pps = append(pps, pkts/r.wall.Seconds())
		jps = append(jps, float64(n)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond)/pkts)
		alloc = append(alloc, float64(r.allocBytes)/pkts)
		for _, j := range r.report.Jobs {
			lat = append(lat, millis(j.Span.FinishedNs-j.Span.DispatchedNs))
		}
	}
	fmt.Printf("# steal share: %d measured repetitions, median %.4f; %d kept, max %.4f\n",
		len(reps), median(steal), len(kept), quantile(keptSteal, 1))
	p90 := quantile(lat, 0.9)
	return []metric{
		{"pkts_per_s", "1/s", summarize(pps)},
		{"jobs_per_s", "1/s", summarize(jps)},
		{"job_ms_p50", "ms", summarize(lat)},
		{"job_ms_p90", "ms", summary{p90, p90, p90, len(lat)}},
		{"time_to_all_findings_s", "s", perSeed(kept, func(r rep) float64 { return r.findings.Seconds() })},
		{"setup_s", "s", summarize(setup)},
		{"cpu_us_per_pkt", "us", summarize(cpu)},
		{"alloc_bytes_per_pkt", "B", summarize(alloc)},
	}, jobs, failed, nil
}

// leastStolen returns the repetitions whose steal share is at most the
// median share: at least half of reps, all of them where the host
// reports no steal. The order of reps is kept.
func leastStolen(reps []rep) []rep {
	shares := make([]float64, len(reps))
	for i, r := range reps {
		shares[i] = r.steal
	}
	sort.Float64s(shares)
	limit := shares[(len(shares)-1)/2]
	var kept []rep
	for _, r := range reps {
		if r.steal <= limit {
			kept = append(kept, r)
		}
	}
	return kept
}

// perSeed summarizes a figure that depends strongly on the farm seed,
// such as where in a farm its last finding falls: it takes the median
// over each farm seed's repetitions, then the mean over the seeds, so
// every seed weighs the same however often the run met it. The
// quartiles are those of the per-seed medians.
func perSeed(reps []rep, f func(rep) float64) summary {
	bySeed := map[int64][]float64{}
	for _, r := range reps {
		bySeed[r.farmSeed] = append(bySeed[r.farmSeed], f(r))
	}
	var meds []float64
	sum := 0.0
	for _, xs := range bySeed {
		m := median(xs)
		meds = append(meds, m)
		sum += m
	}
	s := summarize(meds)
	s.Median = sum / float64(len(meds))
	return s
}
