package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"l2fuzz/internal/fleet/wire"
)

// ProcConfig configures a ProcExecutor.
type ProcConfig struct {
	// Procs is the worker subprocess count. Zero means the farm's
	// resolved Workers count. The farm runs at most Config.Workers jobs
	// in flight, so extra workers beyond that idle.
	Procs int
	// Command is the argv spawning one worker; the spawned process must
	// run the wire protocol on its stdin/stdout (RunWorker). Empty means
	// re-exec this binary with the single argument "-worker" — the
	// cmd/l2farm convention.
	Command []string
	// Env entries are appended to the parent environment of every
	// spawned worker.
	Env []string
	// JobDeadline bounds one job's wall time on a worker. A worker
	// exceeding it is killed, which surfaces as a transport failure the
	// farm answers by requeueing the job. Zero means no deadline.
	JobDeadline time.Duration
}

// ProcExecutor runs jobs on a pool of worker subprocesses, one job in
// flight per worker, shipping jobs and results over the wire protocol.
// Workers are spawned at Start and shut down cleanly at Close (their
// job stream ends). A worker that dies or desynchronizes mid-run is
// retired, never respawned: the farm degrades to the surviving workers
// and requeues the lost job, and when no worker is left Execute returns
// ErrNoWorkers.
//
// Variants cross the process boundary by name only. Start rejects
// configs whose hook-carrying variants are not the predefined ablation
// variants (VariantByName resolves those on the worker side); a custom
// variant that reuses a predefined name silently gets the predefined
// hooks instead, so don't do that.
type ProcExecutor struct {
	pc  ProcConfig
	cfg Config

	notify func(WorkerEvent)

	mu         sync.Mutex
	workers    []*procWorker
	live       int
	deadClosed bool
	closed     bool

	idle   chan *procWorker
	deadCh chan struct{}
}

// procWorker is one worker subprocess with its framed pipes.
type procWorker struct {
	id    string
	cmd   *exec.Cmd
	stdin io.Closer
	enc   *wire.Encoder
	dec   *wire.Decoder
	pid   int
	dead  bool
	// res is the decode target for this worker's results, reused
	// because a worker runs one job at a time: a fresh one per job
	// would be a heap allocation per job on the coordinator.
	res wireResult
}

// NewProcExecutor returns an executor spawning workers per pc. Set it
// as Config.Executor; the farm starts and closes it.
func NewProcExecutor(pc ProcConfig) *ProcExecutor {
	return &ProcExecutor{pc: pc}
}

// setNotify installs the farm's worker-retirement sink.
func (e *ProcExecutor) setNotify(fn func(WorkerEvent)) { e.notify = fn }

// workerIDs lists the live workers' ids for the farm's up events.
func (e *ProcExecutor) workerIDs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.workers))
	for _, w := range e.workers {
		if !w.dead {
			ids = append(ids, w.id)
		}
	}
	return ids
}

// Start validates the config against the process boundary and spawns
// the worker pool. A worker that fails to spawn or handshake fails the
// whole Start; the farm surfaces that instead of limping from the off.
func (e *ProcExecutor) Start(cfg Config) error {
	for _, v := range cfg.Variants {
		if v.Core != nil || v.RFCOMM != nil || v.Campaign != nil || v.SDP != nil || v.SM != nil {
			if _, err := VariantByName(v.Name); err != nil {
				return fmt.Errorf("fleet: variant %q carries behaviour hooks, which cannot cross the worker process boundary (only the predefined ablation variants resolve by name on workers)", v.Name)
			}
		}
	}
	e.cfg = cfg
	procs := e.pc.Procs
	if procs <= 0 {
		procs = cfg.Workers
	}
	fc := wireFarm{
		Version:          wireVersion,
		MeasurementGrade: cfg.MeasurementGrade,
		CampaignRuns:     cfg.CampaignRuns,
		Record:           cfg.Corpus != nil,
		Counters:         cfg.Counters != nil,
	}
	e.idle = make(chan *procWorker, procs)
	e.deadCh = make(chan struct{})
	for i := 0; i < procs; i++ {
		w, err := e.spawn(i, fc)
		if err != nil {
			e.Close()
			return err
		}
		e.mu.Lock()
		e.workers = append(e.workers, w)
		e.live++
		e.mu.Unlock()
		e.idle <- w
	}
	return nil
}

// spawn launches one worker and completes the hello/config handshake.
func (e *ProcExecutor) spawn(i int, fc wireFarm) (*procWorker, error) {
	argv := e.pc.Command
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("fleet: resolve worker binary: %w", err)
		}
		argv = []string{self, "-worker"}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), e.pc.Env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: spawn worker: %w", err)
	}
	w := &procWorker{
		id:    fmt.Sprintf("proc/%d", i),
		cmd:   cmd,
		stdin: stdin,
		enc:   wire.NewEncoder(stdin),
		dec:   wire.NewDecoder(stdout),
	}
	fail := func(err error) (*procWorker, error) {
		cmd.Process.Kill()
		stdin.Close()
		cmd.Wait()
		return nil, err
	}
	var hello wireHello
	if err := w.dec.Decode(&hello); err != nil {
		return fail(fmt.Errorf("fleet: worker %s sent no hello: %w", w.id, err))
	}
	if hello.Version != wireVersion {
		return fail(fmt.Errorf("fleet: worker %s speaks wire version %d, this coordinator version %d", w.id, hello.Version, wireVersion))
	}
	w.pid = hello.PID
	if err := w.enc.Encode(fc); err != nil {
		return fail(fmt.Errorf("fleet: worker %s rejected farm config: %w", w.id, err))
	}
	return w, nil
}

// Execute ships the job to an idle worker and waits for its result. A
// transport failure retires the worker and is returned for the farm to
// requeue the job elsewhere.
func (e *ProcExecutor) Execute(ctx context.Context, job Job) (JobResult, error) {
	w, err := e.acquire(ctx)
	if err != nil {
		return JobResult{}, err
	}
	res, err := e.runOn(w, job)
	if err != nil {
		e.retire(w, err.Error())
		return JobResult{}, fmt.Errorf("fleet: worker %s: %w", w.id, err)
	}
	e.idle <- w
	return res, nil
}

// acquire takes an idle worker, preferring one over noticing that the
// pool has died.
func (e *ProcExecutor) acquire(ctx context.Context) (*procWorker, error) {
	select {
	case w := <-e.idle:
		return w, nil
	default:
	}
	select {
	case w := <-e.idle:
		return w, nil
	case <-e.deadCh:
		return nil, ErrNoWorkers
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runOn runs one job on one worker. Any error is a transport failure:
// the worker's pipes are no longer trustworthy.
func (e *ProcExecutor) runOn(w *procWorker, job Job) (JobResult, error) {
	wj := wireJob{jobRecord: jobRecordOf(job)}
	// The span's Started phase begins as the job hits the wire: the
	// worker echoes the offset back (a desync check) and adds its own
	// measured execution time, so the coordinator can split this job's
	// wall into transport vs execute.
	wj.StartedNs = sinceEpoch(e.cfg.epoch, time.Now())
	if err := w.enc.Encode(wj); err != nil {
		return JobResult{}, fmt.Errorf("send job: %w", err)
	}
	var timer *time.Timer
	if d := e.pc.JobDeadline; d > 0 {
		// Killing the process closes its pipes, which unblocks the
		// decode below — the deadline needs no second reader.
		proc := w.cmd.Process
		timer = time.AfterFunc(d, func() { proc.Kill() })
	}
	wr := &w.res
	*wr = wireResult{}
	err := w.dec.Decode(wr)
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		return JobResult{}, fmt.Errorf("read result: %w", err)
	}
	if wr.Index != job.Index {
		return JobResult{}, fmt.Errorf("answered job %d while running job %d", wr.Index, job.Index)
	}
	if wr.StartedNs != wj.StartedNs {
		return JobResult{}, fmt.Errorf("answered span %v while running span %v of job %d", wr.StartedNs, wj.StartedNs, job.Index)
	}
	if wr.Counters != nil {
		// Fold the worker's per-job telemetry delta into the farm's
		// counters — the subprocess form of runJob's local-merge.
		e.cfg.Counters.Merge(*wr.Counters)
	}
	// job is the coordinator's own Job, so its Spec pointer stays
	// pointer-identical to the farm's target list, exactly as local
	// execution leaves it. The span's executor-side phases come back
	// over the wire: Started from the coordinator's own send stamp
	// (echoed), Exec measured by the worker. The dispatcher fills the
	// farm-side phases.
	res := wr.result(job)
	res.Worker = w.id
	res.Span.StartedNs, res.Span.ExecNs = wr.StartedNs, wr.ExecNs
	return res, nil
}

// markDead transitions one worker to dead; reports false if it already
// was. The last live worker's death closes deadCh.
func (e *ProcExecutor) markDead(w *procWorker) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w.dead {
		return false
	}
	w.dead = true
	e.live--
	if e.live == 0 && !e.deadClosed {
		e.deadClosed = true
		close(e.deadCh)
	}
	return true
}

// retire takes a failed worker out of circulation: kill, reap, notify.
func (e *ProcExecutor) retire(w *procWorker, reason string) {
	if !e.markDead(w) {
		return
	}
	w.cmd.Process.Kill()
	w.stdin.Close()
	w.cmd.Wait()
	if e.notify != nil {
		e.notify(WorkerEvent{Worker: w.id, Err: reason})
	}
}

// KillOne kills the OS process of one live worker — the chaos hook the
// robustness tests use to simulate a worker crash. Only the process
// dies here; the executor notices at the worker's next use, retires it
// then, and the farm requeues the affected job. Returns the victim's
// id, or "" when no worker is live.
func (e *ProcExecutor) KillOne() string {
	e.mu.Lock()
	var victim *procWorker
	for _, w := range e.workers {
		if !w.dead {
			victim = w
			break
		}
	}
	e.mu.Unlock()
	if victim == nil {
		return ""
	}
	victim.cmd.Process.Kill()
	return victim.id
}

// Close shuts the pool down cleanly: each surviving worker's job stream
// ends (stdin closes), the worker exits, and its clean retirement is
// reported. Idempotent.
func (e *ProcExecutor) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	workers := append([]*procWorker(nil), e.workers...)
	e.mu.Unlock()
	for _, w := range workers {
		if !e.markDead(w) {
			continue
		}
		w.stdin.Close()
		err := w.cmd.Wait()
		ev := WorkerEvent{Worker: w.id}
		if err != nil {
			ev.Err = err.Error()
		}
		if e.notify != nil {
			e.notify(ev)
		}
	}
	return nil
}
