package ltp

// The campaign engine: the long-lived execution layer behind the
// campaign service (cmd/ltpserved, internal/server). One sched.Pool
// serves interactive single-run requests and batch sweep campaigns
// with tiered LPT ordering under a single parallelism cap, and one
// content-addressed internal/cache deduplicates identical cells across
// overlapping requests: each distinct cell simulates at most once
// process-wide. The v2 surface is context-first: every execution path
// accepts a context, cancellation reaches from the HTTP handler down
// to the pipeline cycle loop, and a submitted Job streams per-cell
// results as they resolve.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ltp/internal/cache"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
	"ltp/internal/store"
)

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// Parallelism is the worker-pool size, the hard cap on concurrent
	// simulations across every request (0 = NumCPU).
	Parallelism int
	// CacheEntries bounds the result cache's LRU
	// (0 = cache.DefaultEntries).
	CacheEntries int
	// StorePath, when non-empty, opens (creating if absent) a
	// persistent content-addressed result store at that path and layers
	// it behind the in-memory cache: a cell found there loads instead
	// of simulating, and every fresh simulation appends. The engine
	// owns the handle (single writer per file) and closes it in Close.
	StorePath string
}

// Engine executes runs and sweep campaigns on one shared tiered-LPT
// worker pool with a content-addressed result cache. It is safe for
// concurrent use; create one per process (or use DefaultEngine) so the
// parallelism cap and the cell deduplication are global.
type Engine struct {
	pool  *sched.Pool
	cache *cache.Cache
	// store is the persistent result tier (nil without StorePath); it
	// backs the cache via storeBacking and closes with the engine.
	store *store.Store
	// jobs tracks in-flight Submit coordinators so Close can wait for
	// them before closing the pool; mu/closed gate new jobs against a
	// concurrent Close (WaitGroup Add-after-Wait is undefined
	// otherwise).
	mu     sync.Mutex
	closed bool
	jobs   sync.WaitGroup

	// statMu guards the per-backend run accounting below. A single
	// process-wide EWMA would price a queue of near-free model cells at
	// the cycle backend's mean (over-reporting Retry-After up to its
	// clamp), so both the latency means and the outstanding counts are
	// keyed by backend name.
	statMu sync.Mutex
	// runMeans is the exponentially weighted mean wall-clock seconds of
	// an actually simulated cell, per backend.
	runMeans map[string]float64
	// outstanding counts cells handed to the pool but not yet resolved,
	// per backend (cache hits and shared waiters never enter).
	outstanding map[string]int

	// oracles shares limit-study oracles across the engine's runs,
	// keyed by oracleKey (bounded LRU, one build per key).
	oracles *cache.Cache
}

// NewEngine starts an engine; Close releases its workers (and the
// persistent store, if configured). The only error source is opening
// EngineConfig.StorePath — a store-less config cannot fail.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	e := &Engine{
		pool:    sched.NewPool(cfg.Parallelism),
		cache:   cache.New(cfg.CacheEntries),
		oracles: cache.New(oracleMemoEntries),
	}
	if cfg.StorePath != "" {
		st, err := store.Open(cfg.StorePath)
		if err != nil {
			e.pool.Close()
			return nil, err
		}
		e.store = st
		e.cache.SetBacking(storeBacking{st})
	}
	return e, nil
}

// Close waits for every in-flight job and queued run, then stops the
// pool. Submit after (or racing) Close returns an error; a straggler
// RunCached degrades to inline execution (sched.Pool's closed-SubmitCtx
// contract) rather than failing. To bound the wait, cancel the
// outstanding jobs first (Job.Cancel) — their remaining cells then
// abort within about a millisecond each.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.jobs.Wait()
	e.pool.Close()
	if e.store != nil {
		// All appends have drained with the jobs and the pool; detach
		// the backing before the handle closes under it.
		e.cache.SetBacking(nil)
		e.store.Close()
	}
}

// Parallelism returns the engine's concurrent-simulation cap.
func (e *Engine) Parallelism() int { return e.pool.Workers() }

// QueuedRuns returns the number of submitted simulations not yet
// started (the service's backpressure signal).
func (e *Engine) QueuedRuns() int { return e.pool.Queued() }

// RunningRuns returns the number of simulations currently executing.
func (e *Engine) RunningRuns() int { return e.pool.Running() }

// CacheStats returns a snapshot of the result-cache counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// MeanRunSeconds returns the exponentially weighted mean wall-clock
// duration of a simulated (non-cached) cycle-backend cell, or 0 before
// the first completes. Use MeanRunSecondsFor for the other backends
// and PerRunSeconds for a queue-composition-weighted figure.
func (e *Engine) MeanRunSeconds() float64 {
	return e.MeanRunSecondsFor(BackendCycle)
}

// MeanRunSecondsFor returns the exponentially weighted mean wall-clock
// duration of a simulated (non-cached) cell on the named backend, or 0
// before that backend's first simulation completes.
func (e *Engine) MeanRunSecondsFor(backend string) float64 {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.runMeans[backend]
}

// MeanRunSecondsByBackend returns a snapshot of every backend's EWMA
// mean simulated-cell seconds (backends with no completed simulation
// are absent).
func (e *Engine) MeanRunSecondsByBackend() map[string]float64 {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	out := make(map[string]float64, len(e.runMeans))
	for b, m := range e.runMeans {
		out[b] = m
	}
	return out
}

// OutstandingSeconds estimates the wall-clock seconds of simulation
// work currently queued or running: each outstanding cell weighted by
// its own backend's EWMA mean (one second for a backend that has not
// completed a cell yet). This is the mixed-fidelity Retry-After input —
// a thousand queued model estimates no longer price like a thousand
// cycle runs.
func (e *Engine) OutstandingSeconds() float64 {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	var total float64
	for b, n := range e.outstanding {
		mean := e.runMeans[b]
		if mean <= 0 {
			mean = 1
		}
		total += float64(n) * mean
	}
	return total
}

// PerRunSeconds returns the mean wall-clock of one outstanding cell,
// weighted by the queue's current backend mix, falling back to the
// cycle backend's EWMA when nothing is outstanding.
func (e *Engine) PerRunSeconds() float64 {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	var secs float64
	var n int
	for b, c := range e.outstanding {
		mean := e.runMeans[b]
		if mean <= 0 {
			mean = 1
		}
		secs += float64(c) * mean
		n += c
	}
	if n == 0 {
		return e.runMeans[BackendCycle]
	}
	return secs / float64(n)
}

// noteRunSeconds folds one simulated cell's wall-clock into its
// backend's EWMA.
func (e *Engine) noteRunSeconds(backend string, s float64) {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	if e.runMeans == nil {
		e.runMeans = make(map[string]float64)
	}
	if mean := e.runMeans[backend]; mean > 0 {
		s = 0.8*mean + 0.2*s
	}
	e.runMeans[backend] = s
}

// noteOutstanding adjusts a backend's outstanding-cell count.
func (e *Engine) noteOutstanding(backend string, delta int) {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	if e.outstanding == nil {
		e.outstanding = make(map[string]int)
	}
	if e.outstanding[backend] += delta; e.outstanding[backend] <= 0 {
		delete(e.outstanding, backend)
	}
}

// runWeight estimates a run's relative wall-clock for LPT ordering:
// LTP machinery, the oracle pre-pass and small IQs (higher CPI)
// dominate. Model-backend cells cost a few percent of a detailed cell
// (no per-cycle loop), so they must not claim the longest-processing-
// time slots a campaign's detailed cells need.
func runWeight(spec RunSpec) float64 {
	c := 1.0
	if spec.UseLTP {
		c += 0.3
		if spec.Oracle {
			c += 0.5
		}
	}
	iq := pipeline.DefaultConfig().IQSize
	if spec.Pipeline != nil {
		iq = spec.Pipeline.IQSize
	}
	if iq < 8 {
		iq = 8
	}
	w := c + 32.0/float64(iq)
	switch specBackendName(spec) {
	case BackendSampled:
		// A sampled run cycle-simulates a 1/K coverage fraction and
		// functionally warms the rest (roughly a tenth of detailed
		// cost per instruction).
		k := sampledIntervals(spec.Intervals, spec.MaxInsts)
		w *= 0.1 + 1.0/float64(k)
	default:
		if !specCycleFidelity(spec) {
			w *= 0.05
		}
	}
	return w
}

// poolExecutor adapts the engine's scheduler pool to sim.Executor so a
// sampled-backend cell fans its K interval simulations onto the same
// workers. Intervals run at the interactive tier: the cell occupying a
// worker blocks until its batch drains, so letting campaign cells
// queue ahead of its intervals would invert priorities. Work helping
// in RunBatch keeps a fully-busy (even single-worker) pool
// deadlock-free.
type poolExecutor struct{ pool *sched.Pool }

func (x poolExecutor) RunBatch(ctx context.Context, costs []float64, fns []func(context.Context)) {
	x.pool.RunBatch(ctx, sched.TierInteractive, costs, fns)
}

// env is the execution environment the engine lends each run: a
// sampled cell fans its interval simulations back onto this pool (see
// poolExecutor), and oracle runs share the engine's oracle memo.
func (e *Engine) env() runEnv {
	return runEnv{exec: poolExecutor{e.pool}, oracles: e.oracles}
}

// oracleMemoEntries bounds how many oracles an engine retains: enough
// for every kernel of a limit-study figure to stay resident at once.
// Every oracle job of a figure on one kernel reads the same pre-pass,
// which costs up to a fifth of such a run.
const oracleMemoEntries = 32

// RunCached executes one simulation through the engine's pool and
// cache at the interactive tier (ahead of queued campaign cells),
// blocking until the result is available or ctx dies, and returns the
// run's content address alongside it. The outcome reports how the
// request was served: Miss (simulated now), Hit (already cached) or
// Shared (joined an identical in-flight simulation). The spec must be
// hashable (see RunSpec.Canonical).
//
// Cancelling ctx abandons only this caller: an identical in-flight
// simulation other callers are waiting on keeps running for them, and
// the cache entry is never poisoned — only when every waiter has
// cancelled is the simulation itself aborted (within about a
// millisecond, mid-pipeline).
func (e *Engine) RunCached(ctx context.Context, spec RunSpec) (RunResult, cache.Outcome, string, error) {
	return e.runCached(ctx, sched.TierInteractive, spec)
}

// RunCellCached is RunCached at the campaign tier: queued interactive
// runs still go first. It is the execution path for coordinator-
// dispatched sweep cells (internal/fabric): a worker serving a fleet's
// campaign shards must not let them preempt its own /v1/run traffic.
func (e *Engine) RunCellCached(ctx context.Context, spec RunSpec) (RunResult, cache.Outcome, string, error) {
	return e.runCached(ctx, sched.TierCampaign, spec)
}

func (e *Engine) runCached(ctx context.Context, tier sched.Tier, spec RunSpec) (RunResult, cache.Outcome, string, error) {
	// Canonicalize once up front: the hash needs it anyway, and the
	// canonical spec rides into the cache value so a fresh result can
	// be persisted with its provenance (see storedRecord).
	canon, err := spec.Canonical()
	if err != nil {
		return RunResult{}, cache.Miss, "", err
	}
	key, err := canon.Hash()
	if err != nil {
		return RunResult{}, cache.Miss, "", err
	}
	v, outcome, err := e.cache.Do(ctx, key, func(cctx context.Context) (any, error) {
		var res RunResult
		var rerr error
		backend := specBackendName(spec)
		e.noteOutstanding(backend, 1)
		defer e.noteOutstanding(backend, -1)
		if err := e.runTask(cctx, tier, runWeight(spec), func(tctx context.Context) {
			// A panicking simulation must become this request's error,
			// not an unrecovered panic on a pool worker (which would
			// kill the process) — and must not let a zero-value result
			// reach the cache.
			defer func() {
				if p := recover(); p != nil {
					rerr = fmt.Errorf("ltp: simulation panicked: %v", p)
				}
			}()
			// Cancelled while queued: never start the simulation.
			if err := tctx.Err(); err != nil {
				rerr = err
				return
			}
			start := time.Now()
			res, rerr = run(tctx, spec, e.env())
			// Each backend feeds its own EWMA: near-free model
			// estimates must not wreck the Retry-After hint for real
			// simulations, and vice versa.
			if rerr == nil {
				e.noteRunSeconds(backend, time.Since(start).Seconds())
			}
		}); err != nil {
			return nil, err
		}
		if rerr != nil {
			return nil, rerr
		}
		return cachedCell{spec: canon, res: res}, nil
	})
	if err != nil {
		return RunResult{}, outcome, key, err
	}
	return v.(cachedCell).res, outcome, key, nil
}

// runTask runs fn on the pool at the given tier and cost and blocks
// until it returns. A task abandoned while still queued (ctx dies
// before a worker takes it) returns ctx's error at once and fn never
// runs, so a caller is never held behind other work; a task that has
// started is waited out — fn observes ctx and stops within about a
// millisecond — so abandoned work has left the worker when the
// caller's cache flight resolves.
func (e *Engine) runTask(ctx context.Context, tier sched.Tier, cost float64, fn func(context.Context)) error {
	const queued, started, abandoned = 0, 1, 2
	var state atomic.Int32
	done := make(chan struct{})
	e.pool.SubmitCtx(ctx, tier, cost, func(tctx context.Context) {
		if !state.CompareAndSwap(queued, started) {
			return
		}
		defer close(done)
		fn(tctx)
	})
	select {
	case <-done:
	case <-ctx.Done():
		if state.CompareAndSwap(queued, abandoned) {
			return ctx.Err()
		}
		<-done
	}
	return nil
}

// ErrJobCanceled is the cause a Job's Wait reports after Cancel (when
// no more specific cause was given).
var ErrJobCanceled = errors.New("ltp: job canceled")

// isCancellation reports whether err stems from a context dying rather
// than a simulation failing.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrJobCanceled)
}

// CellResult is one resolved cell replicate of a sweep job, delivered
// on Job.Cells as it completes (completion order, not enumeration
// order).
type CellResult struct {
	// Index is the run's enumeration index in the sweep's cross-
	// product (row-major, last axis fastest).
	Index int `json:"index"`
	// Coords is the run's point name per axis, in axis order.
	Coords []string `json:"coords"`
	// Cell is the index of the run's cell in the final
	// SweepResult.Cells; Replicate its replicate slot within it.
	Cell int `json:"cell"`
	// Replicate is the run's replicate index within its cell.
	Replicate int `json:"replicate"`
	// Hash is the run's content address ("" when hashing failed).
	Hash string `json:"hash,omitempty"`
	// Backend is the execution backend the run used ("cycle",
	// "model").
	Backend string `json:"backend,omitempty"`
	// Phase distinguishes a triage sweep's phases: "triage" for the
	// model pre-pass, "detail" for the cycle-accurate re-runs of the
	// selected cells. Empty for plain sweeps.
	Phase string `json:"phase,omitempty"`
	// Outcome is how the run was served: "miss" (simulated), "hit"
	// (in-memory cache), "shared" (joined an in-flight identical
	// simulation), "store" (loaded from the persistent result store),
	// or "cached" (skipped entirely — its hash was in the sweep's
	// SinceSnapshot manifest; Result is zero).
	Outcome string `json:"outcome"`
	// Result is the simulation outcome (zero when Err is set).
	Result RunResult `json:"result"`
	// Error is Err's message — the run's failure, marshalled so a
	// streaming consumer can tell a failed cell from a real zero.
	Error string `json:"error,omitempty"`
	// Err is the run's failure, nil on success.
	Err error `json:"-"`
}

// Progress is a point-in-time view of a running job.
type Progress struct {
	// TotalRuns is the job's enumerated simulation count.
	TotalRuns int `json:"total_runs"`
	// DoneRuns counts the runs resolved so far (success or failure).
	DoneRuns int `json:"done_runs"`
	// CanceledRuns counts runs abandoned before resolving — queued
	// cells a cancellation kept from simulating, in-flight cells
	// aborted mid-pipeline, and a triage job's later-phase runs that a
	// cancellation or an earlier-phase failure kept from launching.
	CanceledRuns int `json:"canceled_runs"`
	// CacheHits counts resolved runs reusing a stored result.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts resolved runs that actually simulated.
	CacheMisses int64 `json:"cache_misses"`
	// CacheShared counts resolved runs that joined an in-flight
	// identical simulation (possibly another job's).
	CacheShared int64 `json:"cache_shared"`
	// StoreHits counts resolved runs loaded from the persistent result
	// store (simulated by an earlier process, not this one).
	StoreHits int64 `json:"store_hits"`
	// SnapshotSkipped counts runs never executed because their content
	// address was in the sweep's SinceSnapshot manifest (streamed as
	// outcome "cached"; included in DoneRuns).
	SnapshotSkipped int64 `json:"snapshot_skipped"`
	// Finished reports whether the job has completed (check Wait for
	// the verdict).
	Finished bool `json:"finished"`
}

// Job is the handle for an asynchronously submitted sweep campaign.
// Cells streams per-cell results as they resolve; Progress may be
// polled at any time; Done closes when the aggregated result (or
// error) is ready; Cancel aborts the job's remaining work.
type Job struct {
	spec  SweepSpec // canonical
	hash  string
	total int

	done      atomic.Int64
	canceled  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	storeHits atomic.Int64
	skipped   atomic.Int64

	// Cell results accumulate in an append-only log (no up-front
	// O(TotalRuns) buffer); Cells lazily starts one forwarder that
	// replays the log onto the returned channel.
	cellMu     sync.Mutex
	cellLog    []CellResult
	cellNotify chan struct{} // closed and replaced on every append
	cellsDone  bool
	cellsOnce  sync.Once
	cellsCh    chan CellResult

	cancelFn context.CancelCauseFunc

	doneCh chan struct{}
	result *SweepResult
	err    error
}

// Spec returns the canonical sweep spec the job executes.
func (j *Job) Spec() SweepSpec { return j.spec }

// Hash returns the sweep's content address (SweepSpec.Hash).
func (j *Job) Hash() string { return j.hash }

// TotalRuns returns the job's enumerated simulation count.
func (j *Job) TotalRuns() int { return j.total }

// Done returns a channel closed when the job finishes (result ready,
// failed, or cancellation fully drained).
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Cells returns the job's result stream: one CellResult per resolved
// run, in completion order, closed when no more will arrive. Cells
// abandoned by cancellation are not delivered (Progress counts them).
// The job itself only appends to an internal log, so a slow (or
// absent) consumer never blocks the campaign; repeated calls return
// the same channel, which replays from the first cell. The single
// logical consumer should drain the channel to completion — walking
// away mid-stream strands the forwarder goroutine until process exit.
func (j *Job) Cells() <-chan CellResult {
	j.cellsOnce.Do(func() {
		ch := make(chan CellResult, 64)
		j.cellsCh = ch
		go func() {
			next := 0
			for {
				j.cellMu.Lock()
				cells := j.cellLog[next:]
				notify := j.cellNotify
				done := j.cellsDone
				j.cellMu.Unlock()
				for _, c := range cells {
					ch <- c
				}
				next += len(cells)
				if len(cells) == 0 && done {
					// Every cell has been delivered; drop the log so a
					// long-retained finished Job does not pin thousands
					// of full RunResults.
					j.cellMu.Lock()
					j.cellLog = nil
					j.cellMu.Unlock()
					close(ch)
					return
				}
				if len(cells) == 0 {
					<-notify
				}
			}
		}()
	})
	return j.cellsCh
}

// appendCell records one resolved cell and wakes the forwarder.
func (j *Job) appendCell(c CellResult) {
	j.cellMu.Lock()
	j.cellLog = append(j.cellLog, c)
	close(j.cellNotify)
	j.cellNotify = make(chan struct{})
	j.cellMu.Unlock()
}

// finishCells marks the log complete (no appends can follow) and
// wakes the forwarder so it can close the stream.
func (j *Job) finishCells() {
	j.cellMu.Lock()
	j.cellsDone = true
	close(j.cellNotify)
	j.cellNotify = make(chan struct{})
	j.cellMu.Unlock()
}

// Cancel aborts the job: queued cells never simulate, in-flight cells
// abort mid-pipeline within about a millisecond (unless another job's
// waiter shares them — shared cells complete for the survivors), and
// Wait returns ErrJobCanceled. Cancel after completion is a no-op.
func (j *Job) Cancel() { j.cancelFn(ErrJobCanceled) }

// Canceled reports whether the job ended cancelled.
func (j *Job) Canceled() bool {
	select {
	case <-j.doneCh:
		return isCancellation(j.err)
	default:
		return false
	}
}

// Progress returns a point-in-time snapshot of the job.
func (j *Job) Progress() Progress {
	p := Progress{
		TotalRuns:       j.total,
		DoneRuns:        int(j.done.Load()),
		CanceledRuns:    int(j.canceled.Load()),
		CacheHits:       j.hits.Load(),
		CacheMisses:     j.misses.Load(),
		CacheShared:     j.shared.Load(),
		StoreHits:       j.storeHits.Load(),
		SnapshotSkipped: j.skipped.Load(),
	}
	select {
	case <-j.doneCh:
		p.Finished = true
	default:
	}
	return p
}

// Wait blocks until the job finishes and returns its aggregated
// result, or the first cell failure, or the cancellation cause.
func (j *Job) Wait() (*SweepResult, error) {
	<-j.doneCh
	return j.result, j.err
}

// Submit validates and canonicalizes the sweep, arranges every
// enumerated run to execute through the engine's cache and pool at the
// campaign tier, and returns immediately with a job handle. Identical
// cells — within the sweep, across concurrent jobs, or already
// computed by an earlier request — are simulated exactly once and
// shared.
//
// ctx bounds the whole job: cancelling it (or calling Job.Cancel)
// stops remaining cells within one cell boundary — queued cells are
// never simulated, in-flight ones abort mid-pipeline — after which the
// job finishes with the cancellation cause.
func (e *Engine) Submit(ctx context.Context, spec SweepSpec) (*Job, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := canon.Hash()
	if err != nil {
		return nil, err
	}
	runs := canon.runs()
	total := len(runs)
	if canon.Triage != nil {
		// A triage job's detailed phase re-runs the TopK cells'
		// replicates on top of the model pre-pass.
		total += canon.Triage.TopK * canon.Replicates()
	}
	jctx, cancel := context.WithCancelCause(ctx)
	job := &Job{
		spec:       canon,
		hash:       hash,
		total:      total,
		cellNotify: make(chan struct{}),
		cancelFn:   cancel,
		doneCh:     make(chan struct{}),
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel(nil)
		return nil, fmt.Errorf("ltp: engine is closed")
	}
	e.jobs.Add(1)
	e.mu.Unlock()
	go e.runJob(jctx, job, runs)
	return job, nil
}

// Phase values of CellResult.Phase in a triage sweep.
const (
	// PhaseTriage marks a model-backend pre-pass run.
	PhaseTriage = "triage"
	// PhaseDetail marks a cycle-accurate re-run of a selected cell.
	PhaseDetail = "detail"
)

// runJob is a submitted job's coordinator goroutine.
func (e *Engine) runJob(jctx context.Context, job *Job, runs []sweepRun) {
	defer e.jobs.Done()
	defer close(job.doneCh)
	defer job.cancelFn(nil) // release the job context's resources
	defer job.finishCells() // no phase appends after this point

	if job.spec.Triage != nil {
		e.runTriageJob(jctx, job, runs)
		return
	}
	runs = skipSnapshotRuns(job, runs)
	results, errs := e.runPhase(jctx, job, runs, "")
	if jctx.Err() != nil {
		job.err = cancelErr(jctx)
		return
	}
	if err := firstRunError(runs, errs); err != nil {
		job.err = err
		return
	}
	job.result = aggregateSweep(job.spec, runs, results)
}

// runTriageJob executes a two-phase fidelity triage: a model-backend
// pre-pass over every enumerated run, a ranking of the cells by their
// model-estimated mean CPI, and a cycle-accurate re-run of the TopK
// best cells. Both phases stream through the same cell log with
// distinct Phase tags, and the detailed runs hash (and therefore
// cache) exactly like directly submitted cycle-backend cells.
func (e *Engine) runTriageJob(jctx context.Context, job *Job, runs []sweepRun) {
	// Phase 1: estimate every cell on the model backend.
	model := make([]sweepRun, len(runs))
	for i, r := range runs {
		r.spec.Backend = BackendModel
		model[i] = r
	}
	// Whatever ends this job early — cancellation here, or a failed
	// cell below — the runs the later phase now never launches are
	// charged as abandoned, so Progress always adds up to TotalRuns.
	defer job.abandonRemaining()

	mres, merrs := e.runPhase(jctx, job, model, PhaseTriage)
	if jctx.Err() != nil {
		job.err = cancelErr(jctx)
		return
	}
	if err := firstRunError(model, merrs); err != nil {
		job.err = err
		return
	}
	estimates := aggregateSweep(job.spec, model, mres)

	// Rank cells by ascending model-estimated mean CPI (best
	// performance first); ties keep sweep order.
	order := make([]int, len(estimates.Cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return estimates.Cells[order[a]].CPI.Mean < estimates.Cells[order[b]].CPI.Mean
	})
	selected := make(map[int]bool, job.spec.Triage.TopK)
	for _, ci := range order[:job.spec.Triage.TopK] {
		selected[ci] = true
	}

	// Phase 2: re-run the selected cells' replicates at their own
	// detailed fidelity (their specs are untouched — the triage
	// validation pinned them to the cycle or sampled backend, so these
	// hashes equal a direct submission's).
	var detail []sweepRun
	for _, r := range runs {
		if selected[r.cell] {
			detail = append(detail, r)
		}
	}
	dres, derrs := e.runPhase(jctx, job, detail, PhaseDetail)
	if jctx.Err() != nil {
		job.err = cancelErr(jctx)
		return
	}
	if err := firstRunError(detail, derrs); err != nil {
		job.err = err
		return
	}
	detailed := aggregateSweep(job.spec, detail, dres)
	out := &SweepResult{
		Axes:   estimates.Axes,
		Cells:  estimates.Cells,
		Triage: &TriageResult{TopK: job.spec.Triage.TopK},
	}
	for _, c := range detailed.Cells {
		if c.Replicates > 0 {
			out.Triage.Detailed = append(out.Triage.Detailed, c)
		}
	}
	job.result = out
}

// phaseUnit is one launch unit of a phase: a single run, or a group of
// model-backend runs sharing one functional stream (equal
// modelBatchKey) that executes as one batched pool task through
// runBatchCached.
type phaseUnit struct {
	idx    []int     // positions in the phase's runs slice
	canons []RunSpec // parallel to idx; non-nil marks a batch unit
	weight float64   // Σ runWeight over the unit's runs
}

// phaseUnits partitions a phase's runs: model cells that share a
// functional stream and warm/measured budgets coalesce into batch
// units (the stream is emulated once for the whole group), everything
// else launches alone. Triage phase 1 rewrites every run to the model
// backend, so triage sweeps batch wholesale without special-casing.
// Units come back heaviest first (stable): the pool orders only what is
// queued, and runPhase admits a few units at a time, so longest-first
// across a whole phase needs the order here.
func phaseUnits(runs []sweepRun) []phaseUnit {
	units := make([]phaseUnit, 0, len(runs))
	groups := make(map[string]*phaseUnit)
	var order []string
	for i := range runs {
		if canon, err := runs[i].spec.Canonical(); err == nil {
			if key, ok := modelBatchKey(canon); ok {
				g := groups[key]
				if g == nil {
					g = &phaseUnit{}
					groups[key] = g
					order = append(order, key)
				}
				g.idx = append(g.idx, i)
				g.canons = append(g.canons, canon)
				continue
			}
		}
		units = append(units, phaseUnit{idx: []int{i}})
	}
	for _, k := range order {
		g := groups[k]
		if len(g.idx) == 1 {
			// A group of one gains nothing from the batch path; keep
			// the single-cell machinery.
			units = append(units, phaseUnit{idx: g.idx})
			continue
		}
		units = append(units, *g)
	}
	for u := range units {
		for _, i := range units[u].idx {
			units[u].weight += runWeight(runs[i].spec)
		}
	}
	sort.SliceStable(units, func(a, b int) bool { return units[a].weight > units[b].weight })
	return units
}

// recordPhaseCell folds one resolved cell into the job's counters and
// cell stream — shared by the single and batched execution paths so
// their bookkeeping cannot drift.
func (j *Job) recordPhaseCell(r sweepRun, res RunResult, outcome cache.Outcome, hash string, err error, phase string) {
	if err != nil && isCancellation(err) {
		j.canceled.Add(1)
		return
	}
	switch outcome {
	case cache.Hit:
		j.hits.Add(1)
	case cache.Shared:
		j.shared.Add(1)
	case cache.StoreHit:
		j.storeHits.Add(1)
	default:
		j.misses.Add(1)
	}
	j.done.Add(1)
	cell := CellResult{
		Index:     r.idx,
		Coords:    r.coords,
		Cell:      r.cell,
		Replicate: r.rep,
		Hash:      hash,
		Backend:   specBackendName(r.spec),
		Phase:     phase,
		Outcome:   outcome.String(),
		Result:    res,
		Err:       err,
	}
	if err != nil {
		cell.Error = err.Error()
	}
	j.appendCell(cell)
}

// runPhase executes one batch of enumerated runs through the engine's
// cache and pool at the campaign tier, streaming each resolved cell
// with the given phase tag, and returns per-run results and errors.
// Model cells sharing a stream execute batched (see phaseUnits).
func (e *Engine) runPhase(jctx context.Context, job *Job, runs []sweepRun, phase string) ([]RunResult, []error) {
	results := make([]RunResult, len(runs))
	errs := make([]error, len(runs))
	units := phaseUnits(runs)
	// Bound this phase's outstanding runCached calls: without it a
	// large admitted sweep would park one goroutine per run
	// (potentially hundreds of thousands of stacks) before pool
	// backpressure applies. 2× the pool keeps every worker fed while
	// cells resolve.
	sem := make(chan struct{}, 2*e.pool.Workers())
	var wg sync.WaitGroup
launch:
	for u := range units {
		select {
		case <-jctx.Done():
			// Cancelled: everything not yet launched is abandoned
			// without ever touching the pool or the cache.
			for _, unit := range units[u:] {
				job.canceled.Add(int64(len(unit.idx)))
				for _, k := range unit.idx {
					errs[k] = cancelErr(jctx)
				}
			}
			break launch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(unit phaseUnit) {
			defer wg.Done()
			defer func() { <-sem }()
			if unit.canons == nil {
				i := unit.idx[0]
				res, outcome, hash, err := e.runCached(jctx, sched.TierCampaign, runs[i].spec)
				results[i], errs[i] = res, err
				job.recordPhaseCell(runs[i], res, outcome, hash, err, phase)
				return
			}
			rres, routs, rhashes, rerrs := e.runBatchCached(jctx, sched.TierCampaign, unit.canons)
			for j, i := range unit.idx {
				results[i], errs[i] = rres[j], rerrs[j]
				job.recordPhaseCell(runs[i], rres[j], routs[j], rhashes[j], rerrs[j], phase)
			}
		}(units[u])
	}
	wg.Wait()
	return results, errs
}

// runBatchCached resolves a group of canonical model-backend specs
// (equal modelBatchKey) through the cache's batch path: lanes already
// cached (memory or backing) or in flight are served per-key exactly
// as runCached would serve them, and the remainder is computed by ONE
// pool task driving runModelBatch — one shared functional stream, one
// warm pass, per-config timing lanes. Each computed lane is stored
// under its own content address, so batched and single-cell results
// are fully interchangeable in the cache.
func (e *Engine) runBatchCached(ctx context.Context, tier sched.Tier, canons []RunSpec) ([]RunResult, []cache.Outcome, []string, []error) {
	n := len(canons)
	results := make([]RunResult, n)
	outcomes := make([]cache.Outcome, n)
	errs := make([]error, n)
	keys := make([]string, n)
	sub := make([]int, 0, n) // lanes with a valid content address
	for i := range canons {
		key, err := canons[i].Hash()
		if err != nil {
			// Cannot happen for a spec Canonical() accepted, but a
			// surprise degrades one lane, not the group.
			errs[i] = err
			continue
		}
		keys[i] = key
		sub = append(sub, i)
	}
	if len(sub) == 0 {
		return results, outcomes, keys, errs
	}
	subKeys := make([]string, len(sub))
	for j, i := range sub {
		subKeys[j] = keys[i]
	}
	vals, outs, cerrs := e.cache.DoBatch(ctx, subKeys, func(bctx context.Context, miss []int) ([]any, []error) {
		specs := make([]RunSpec, len(miss))
		for j, mj := range miss {
			specs[j] = canons[sub[mj]]
		}
		mvals := make([]any, len(miss))
		merrs := make([]error, len(miss))
		var weight float64
		for i := range specs {
			weight += runWeight(specs[i])
		}
		e.noteOutstanding(BackendModel, len(specs))
		defer e.noteOutstanding(BackendModel, -len(specs))
		if err := e.runTask(bctx, tier, weight, func(tctx context.Context) {
			// A panicking batch must become per-lane errors, not an
			// unrecovered panic on a pool worker.
			defer func() {
				if p := recover(); p != nil {
					err := fmt.Errorf("ltp: simulation panicked: %v", p)
					for j := range merrs {
						if mvals[j] == nil && merrs[j] == nil {
							merrs[j] = err
						}
					}
				}
			}()
			// Cancelled while queued: never start the batch.
			if err := tctx.Err(); err != nil {
				for j := range merrs {
					merrs[j] = err
				}
				return
			}
			start := time.Now()
			rres, rerrs := runModelBatch(tctx, specs, e.env())
			// Amortized per-lane seconds feed the model backend's EWMA,
			// mirroring one noteRunSeconds per single-cell run.
			perLane := time.Since(start).Seconds() / float64(len(specs))
			for j := range specs {
				if rerrs[j] != nil {
					merrs[j] = rerrs[j]
					continue
				}
				mvals[j] = cachedCell{spec: specs[j], res: rres[j]}
				e.noteRunSeconds(BackendModel, perLane)
			}
		}); err != nil {
			for j := range merrs {
				merrs[j] = err
			}
		}
		return mvals, merrs
	})
	for j, i := range sub {
		outcomes[i] = outs[j]
		if cerrs[j] != nil {
			errs[i] = cerrs[j]
			continue
		}
		results[i] = vals[j].(cachedCell).res
	}
	return results, outcomes, keys, errs
}

// skipSnapshotRuns settles every run whose content address is in the
// sweep's SinceSnapshot set — streamed immediately as an Outcome
// "cached" cell with a zero Result, counted as done and
// snapshot-skipped — and returns the remainder for execution. The
// snapshot set was normalized by SweepSpec.Canonical to addresses the
// sweep actually enumerates, so this is a pure set lookup per run.
func skipSnapshotRuns(job *Job, runs []sweepRun) []sweepRun {
	if len(job.spec.SinceSnapshot) == 0 {
		return runs
	}
	snap := make(map[string]bool, len(job.spec.SinceSnapshot))
	for _, h := range job.spec.SinceSnapshot {
		snap[h] = true
	}
	kept := make([]sweepRun, 0, len(runs))
	for _, r := range runs {
		h, err := r.spec.Hash()
		if err != nil || !snap[h] {
			// The hash cannot actually fail here — Canonical hashed every
			// enumerated run when it normalized the snapshot — but an
			// unexpected error degrades to executing the run, never to
			// dropping it.
			kept = append(kept, r)
			continue
		}
		job.done.Add(1)
		job.skipped.Add(1)
		job.appendCell(CellResult{
			Index:     r.idx,
			Coords:    r.coords,
			Cell:      r.cell,
			Replicate: r.rep,
			Hash:      h,
			Backend:   specBackendName(r.spec),
			Outcome:   "cached",
		})
	}
	return kept
}

// abandonRemaining charges every run the job will now never execute —
// a triage job cancelled, or failed, before its detailed phase
// launched — to the canceled counter, so Progress always adds up to
// TotalRuns.
func (j *Job) abandonRemaining() {
	left := int64(j.total) - j.done.Load() - j.canceled.Load()
	if left > 0 {
		j.canceled.Add(left)
	}
}

// firstRunError returns the first cell failure, labeled with its
// coordinates.
func firstRunError(runs []sweepRun, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ltp: sweep cell %v: %w", runs[i].coords, err)
		}
	}
	return nil
}

var (
	defaultEngineMu sync.Mutex
	defaultEngine   *Engine
)

// DefaultEngine returns the lazily created process-wide engine
// (NumCPU workers, cache.DefaultEntries results), recreating it if
// Shutdown retired an earlier one. The campaign service binary sizes
// its own Engine instead.
func DefaultEngine() *Engine {
	defaultEngineMu.Lock()
	defer defaultEngineMu.Unlock()
	if defaultEngine == nil {
		e, err := NewEngine(EngineConfig{})
		if err != nil {
			// Unreachable: only a StorePath can fail NewEngine, and the
			// default engine has none.
			panic(err)
		}
		defaultEngine = e
	}
	return defaultEngine
}

// Shutdown retires the process-wide DefaultEngine: it waits — bounded
// by ctx — for its in-flight jobs and queued runs, then stops its
// worker goroutines so they (and the cache they feed) drain cleanly on
// process exit. It is a cheap no-op when DefaultEngine was never used.
// Call it from main (typically deferred with a short timeout); a later
// DefaultEngine call starts a fresh engine.
func Shutdown(ctx context.Context) error {
	defaultEngineMu.Lock()
	e := defaultEngine
	defaultEngine = nil
	defaultEngineMu.Unlock()
	if e == nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("ltp: shutdown: %w", ctx.Err())
	}
}
