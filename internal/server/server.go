package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Engine, when non-nil, is used as-is (and not closed by
	// Server.Close); otherwise the server owns a new one sized by
	// Parallelism and CacheEntries.
	Engine *ltp.Engine
	// Parallelism is the concurrent-simulation cap for an owned engine
	// (0 = NumCPU).
	Parallelism int
	// CacheEntries bounds the owned engine's result cache
	// (0 = cache.DefaultEntries).
	CacheEntries int
	// StorePath, when non-empty, opens a persistent result store behind
	// the owned engine's cache (ltp.EngineConfig.StorePath): results
	// survive restarts, and /v1/stats grows a "store" section. Ignored
	// when Engine is supplied — a caller-owned engine configures its own
	// store.
	StorePath string
	// Limits is the request admission policy (zero fields =
	// DefaultLimits).
	Limits Limits
	// Logf, when non-nil, receives one line per request.
	Logf func(format string, args ...any)
}

// Server is the campaign service: an http.Handler over one ltp.Engine.
type Server struct {
	engine    *ltp.Engine
	ownEngine bool
	limits    Limits
	jobs      *registry
	logf      func(format string, args ...any)
	started   time.Time
	mux       *http.ServeMux
}

// New assembles a server (it does not listen; mount Handler on an
// http.Server). The only error source is opening Config.StorePath.
func New(cfg Config) (*Server, error) {
	s := &Server{
		engine:    cfg.Engine,
		ownEngine: cfg.Engine == nil,
		limits:    cfg.Limits.withDefaults(),
		logf:      cfg.Logf,
		started:   time.Now(),
	}
	if s.engine == nil {
		e, err := ltp.NewEngine(ltp.EngineConfig{
			Parallelism:  cfg.Parallelism,
			CacheEntries: cfg.CacheEntries,
			StorePath:    cfg.StorePath,
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening result store: %w", err)
		}
		s.engine = e
	}
	s.jobs = newRegistry(s.limits.MaxActiveJobs)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/cells", s.handleCells)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	return s, nil
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP dispatches to the endpoint handlers with request logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.logf != nil {
		s.logf("%s %s", r.Method, r.URL.Path)
	}
	s.mux.ServeHTTP(w, r)
}

// Close releases the engine if the server owns it, waiting for every
// active campaign to finish first. In-flight requests should be
// drained beforehand (http.Server.Shutdown); for a bounded drain that
// cancels stragglers, use Shutdown.
func (s *Server) Close() {
	if s.ownEngine {
		s.engine.Close()
	}
}

// Shutdown drains the service for process exit: it waits — bounded by
// ctx — for active campaigns to finish on their own, cancels whatever
// is still running when ctx expires (queued cells never simulate;
// in-flight ones abort mid-pipeline), and then releases the engine if
// the server owns it. Stop accepting requests first
// (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) {
	if !s.jobs.awaitIdle(ctx.Done()) {
		if s.logf != nil {
			s.logf("drain deadline reached; cancelling active campaigns")
		}
		s.jobs.cancelActive()
		s.jobs.awaitIdle(nil)
	}
	s.Close()
}

// writeJSON writes v with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	// Error is the human-readable reason.
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429s: the
	// queue-depth × mean-cell-latency estimate of when a slot frees.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Hash is the rejected campaign's content address (429 only) — the
	// key under which its cells are cached and deduplicated.
	Hash string `json:"hash,omitempty"`
	// DuplicateJobID names a still-running job with the same hash, if
	// any: poll GET /v1/jobs/{id} instead of resubmitting.
	DuplicateJobID string `json:"duplicate_job_id,omitempty"`
}

// writeError maps an error to its status (apiError carries one;
// anything else is a 500).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		status = ae.status
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// retryAfterSeconds estimates when an active-job slot (or pool
// capacity) frees: outstanding work over parallelism, scaled by the
// engine's per-run latency weighted by the queue's backend mix
// (Engine.PerRunSeconds) — a backlog of near-free model estimates no
// longer prices like one of cycle runs. The backlog is the larger of
// the pool's queue and the active campaigns' unresolved runs — the
// coordinators feed the pool through a bounded window, so the pool
// queue alone understates a deep backlog.
func (s *Server) retryAfterSeconds() int {
	outstanding := s.engine.QueuedRuns() + s.engine.RunningRuns()
	if left := s.jobs.remainingRuns(); left > outstanding {
		outstanding = left
	}
	return retryAfterEstimate(s.engine.PerRunSeconds(), outstanding, s.engine.Parallelism())
}

// retryAfterEstimate converts a mean-cell-seconds EWMA, an outstanding
// backlog and a parallelism cap into a Retry-After value in whole
// seconds: rounded up and clamped to [1, 600]. The lower clamp is
// load-bearing — a sub-second EWMA (cheap cells, an idle engine just
// after start-up) must never emit "Retry-After: 0", which clients read
// as "hammer immediately".
func retryAfterEstimate(mean float64, outstanding, parallelism int) int {
	if mean <= 0 {
		mean = 1 // no simulated cell yet: assume a second each
	}
	if parallelism < 1 {
		parallelism = 1
	}
	secs := int(math.Ceil(mean * float64(outstanding+1) / float64(parallelism)))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// writeBusy renders a 429 with the Retry-After header and the
// duplicate-job hints (satisfying "poll, don't resubmit").
func (s *Server) writeBusy(w http.ResponseWriter, err error, hash string) {
	retry := s.retryAfterSeconds()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	resp := ErrorResponse{
		Error:             err.Error(),
		RetryAfterSeconds: retry,
		Hash:              hash,
	}
	if t, ok := s.jobs.findActiveByHash(hash); ok {
		resp.DuplicateJobID = t.id
	}
	s.writeJSON(w, http.StatusTooManyRequests, resp)
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok" whenever the server can respond.
	Status string `json:"status"`
	// UptimeSeconds is the server's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// WorkloadInfo describes one fixed kernel (GET /v1/workloads).
type WorkloadInfo struct {
	Name       string `json:"name"`        // registry name (RunRequest.workload)
	About      string `json:"about"`       // one-line description
	Class      string `json:"class"`       // intended MLP class
	SPECAnalog string `json:"spec_analog"` // SPEC2006 behaviour it substitutes
}

// ScenarioInfo describes one scenario family (GET /v1/workloads).
type ScenarioInfo struct {
	Name     string       `json:"name"`     // family name (RunRequest.scenario)
	About    string       `json:"about"`    // shape and knob semantics
	Class    string       `json:"class"`    // intended MLP class of the defaults
	Defaults KnobsRequest `json:"defaults"` // knob values used when absent
}

// WorkloadsResponse is the GET /v1/workloads body.
type WorkloadsResponse struct {
	// Kernels is the fixed registry (RunRequest.workload).
	Kernels []WorkloadInfo `json:"kernels"`
	// Scenarios is the parameterized families (RunRequest.scenario).
	Scenarios []ScenarioInfo `json:"scenarios"`
	// Backends is the execution-backend registry (RunRequest.backend):
	// name, fidelity grade and a one-line description.
	Backends []ltp.BackendInfo `json:"backends"`
	// BranchPredictors is the branch-predictor registry
	// (RunRequest.branch_pred).
	BranchPredictors []string `json:"branch_predictors"`
	// Prefetchers is the prefetch-engine registry
	// (RunRequest.prefetcher).
	Prefetchers []string `json:"prefetchers"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := WorkloadsResponse{
		Backends:         ltp.Backends(),
		BranchPredictors: ltp.BranchPredictors(),
		Prefetchers:      ltp.Prefetchers(),
	}
	for _, k := range ltp.Workloads() {
		resp.Kernels = append(resp.Kernels, WorkloadInfo{
			Name: k.Name, About: k.About, Class: k.Hint.String(), SPECAnalog: k.SPECAnalog,
		})
	}
	for _, f := range ltp.Scenarios() {
		resp.Scenarios = append(resp.Scenarios, ScenarioInfo{
			Name: f.Name, About: f.About, Class: f.Hint.String(),
			Defaults: KnobsRequest{
				FootprintWords: f.Defaults.FootprintWords,
				Stride:         f.Defaults.Stride,
				Chains:         f.Defaults.Chains,
				PayloadOps:     f.Defaults.PayloadOps,
				BranchEntropy:  f.Defaults.BranchEntropy,
				PhaseLen:       f.Defaults.PhaseLen,
			},
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// PoolStats is the worker-pool section of GET /v1/stats.
type PoolStats struct {
	// Parallelism is the worker count (the concurrent-simulation cap).
	Parallelism int `json:"parallelism"`
	// Queued counts submitted simulations not yet started.
	Queued int `json:"queued"`
	// Running counts simulations executing at snapshot time.
	Running int `json:"running"`
	// MeanRunSeconds is the EWMA wall-clock of a simulated
	// cycle-backend cell (0 before the first simulation).
	MeanRunSeconds float64 `json:"mean_run_seconds"`
	// MeanRunSecondsByBackend breaks the EWMA down per backend; mixed
	// with the queue's composition it is the Retry-After input
	// (backends with no completed simulation are absent).
	MeanRunSecondsByBackend map[string]float64 `json:"mean_run_seconds_by_backend,omitempty"`
}

// JobStats is the campaign-job section of GET /v1/stats.
type JobStats struct {
	// Total counts every campaign this process served.
	Total int `json:"total"`
	// Active counts campaigns still running (bounded by
	// Limits.MaxActiveJobs).
	Active int `json:"active"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	// Cache exposes the content-addressed result cache's counters —
	// the service's proof of reuse.
	Cache cache.Stats `json:"cache"`
	// Store exposes the persistent result store's counters (absent
	// without Config.StorePath): record/byte totals plus hit, miss,
	// append and corrupt-skipped counts.
	Store *store.Stats `json:"store,omitempty"`
	// Pool snapshots the worker pool's occupancy.
	Pool PoolStats `json:"pool"`
	// Jobs counts campaign jobs.
	Jobs JobStats `json:"jobs"`
	// Limits echoes the admission policy.
	Limits Limits `json:"limits"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	total, active := s.jobs.counts()
	var storeStats *store.Stats
	if st, ok := s.engine.StoreStats(); ok {
		storeStats = &st
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Cache: s.engine.CacheStats(),
		Store: storeStats,
		Pool: PoolStats{
			Parallelism:             s.engine.Parallelism(),
			Queued:                  s.engine.QueuedRuns(),
			Running:                 s.engine.RunningRuns(),
			MeanRunSeconds:          s.engine.MeanRunSeconds(),
			MeanRunSecondsByBackend: s.engine.MeanRunSecondsByBackend(),
		},
		Jobs:   JobStats{Total: total, Active: active},
		Limits: s.limits,
	})
}

// RunResponse is the POST /v1/run body: the canonical hash, how the
// cache served the request, and the full simulation result.
type RunResponse struct {
	// Hash is the run's content address; repeat the request and the
	// same hash guarantees the same result.
	Hash string `json:"hash"`
	// Cache is "miss" (simulated now), "hit" (served from cache) or
	// "shared" (joined an identical in-flight simulation).
	Cache string `json:"cache"`
	// Result is the simulation outcome (metrics, LTP stats, energy).
	Result ltp.RunResult `json:"result"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.runSpec(s.limits)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The request's context bounds the run: a client disconnect
	// cancels this caller (an identical in-flight simulation other
	// waiters share keeps running for them), and the service timeout
	// caps the wall-clock.
	ctx := r.Context()
	if s.limits.RunTimeoutSeconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(s.limits.RunTimeoutSeconds*float64(time.Second)))
		defer cancel()
	}
	res, outcome, hash, err := s.engine.RunCached(ctx, spec)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, &apiError{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("simulation exceeded the %gs service timeout", s.limits.RunTimeoutSeconds)})
		return
	case r.Context().Err() != nil:
		// Client went away; nobody is reading the response.
		return
	default:
		s.writeError(w, fmt.Errorf("simulation failed: %w", err))
		return
	}
	s.writeJSON(w, http.StatusOK, RunResponse{
		Hash:   hash,
		Cache:  outcome.String(),
		Result: res,
	})
}

// MatrixResponse is the POST /v1/matrix and (matrix-kind) GET
// /v1/jobs/{id} body. Result is present only once Job.Status is done.
type MatrixResponse struct {
	// Job describes the campaign's identity and progress.
	Job JobView `json:"job"`
	// Result is the aggregated campaign (status done only).
	Result *ltp.MatrixResult `json:"result,omitempty"`
}

// SweepResponse is the POST /v1/sweep and (sweep-kind) GET
// /v1/jobs/{id} body. Result is present only once Job.Status is done.
type SweepResponse struct {
	// Job describes the campaign's identity and progress.
	Job JobView `json:"job"`
	// Result is the aggregated sweep (status done only).
	Result *ltp.SweepResult `json:"result,omitempty"`
}

// jobResponse renders a job in its kind's response shape, attaching
// the result when finished.
func jobResponse(t *trackedJob) any {
	view := t.view()
	if t.kind == KindMatrix {
		resp := MatrixResponse{Job: view}
		if view.Status == JobDone {
			resp.Result = t.matrixResult()
		}
		return resp
	}
	resp := SweepResponse{Job: view}
	if view.Status == JobDone {
		resp.Result, _ = t.job.Wait()
	}
	return resp
}

// matrixResult folds a finished matrix-kind job's sweep back into the
// matrix shape, once per job (nil unless the job succeeded).
func (t *trackedJob) matrixResult() *ltp.MatrixResult {
	sr, err := t.job.Wait()
	if err != nil {
		return nil
	}
	t.matrixOnce.Do(func() { t.matrixRes, _ = ltp.MatrixResultFromSweep(*t.matrix, sr) })
	return t.matrixRes
}

// StreamEvent is one NDJSON line of POST /v1/matrix?stream=1 and POST
// /v1/sweep?stream=1: one "cell" event per resolved cell (in
// completion order), then one final "result" (or "error") event. The
// final event of a cancelled campaign is "error" with the job view's
// status canceled.
type StreamEvent struct {
	// Type is "cell", "result" or "error".
	Type string `json:"type"`
	// Cell is one resolved cell replicate (cell events).
	Cell *ltp.CellResult `json:"cell,omitempty"`
	// Job is the final job view (result and error events).
	Job *JobView `json:"job,omitempty"`
	// Result is the aggregated matrix campaign (matrix result events).
	Result *ltp.MatrixResult `json:"result,omitempty"`
	// Sweep is the aggregated sweep campaign (sweep result events).
	Sweep *ltp.SweepResult `json:"sweep,omitempty"`
	// Error is the failure or cancellation cause (error events).
	Error string `json:"error,omitempty"`
}

// respondSubmitted handles the ?stream=1 / ?wait=1 forms shared by
// the matrix and sweep endpoints.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, t *trackedJob) {
	switch {
	case wantsStream(r):
		defer t.streamFinished() // release the submit-time reservation
		s.streamJob(w, r, t)
	case r.URL.Query().Get("wait") == "1":
		select {
		case <-t.job.Done():
		case <-r.Context().Done():
			return // client went away; the campaign keeps running
		}
		s.writeJSON(w, http.StatusOK, jobResponse(t))
	default:
		s.writeJSON(w, http.StatusAccepted, jobResponse(t))
	}
}

// wantsStream reports whether the submission asked for the NDJSON
// cell stream (which reserves the job's cell log at registration).
func wantsStream(r *http.Request) bool { return r.URL.Query().Get("stream") == "1" }

// streamJob writes chunked NDJSON: every resolved cell as it lands
// (served from the job's cell log, which is reserved for this stream
// at submission and released once the job finishes and the stream
// ends), then the final result/error event. A client disconnect stops
// the stream without stopping the campaign — cancel via
// DELETE /v1/jobs/{id} instead.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, t *trackedJob) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	emit := func(ev StreamEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	next := 0
	for {
		cells, more, done := t.cellsFrom(next)
		for i := range cells {
			c := cells[i]
			emit(StreamEvent{Type: "cell", Cell: &c})
		}
		next += len(cells)
		if done {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-more:
		}
	}

	<-t.job.Done()
	view := t.view()
	if _, err := t.job.Wait(); err != nil {
		emit(StreamEvent{Type: "error", Job: &view, Error: err.Error()})
		return
	}
	ev := StreamEvent{Type: "result", Job: &view}
	if t.kind == KindMatrix {
		ev.Result = t.matrixResult()
	} else {
		ev.Sweep, _ = t.job.Wait()
	}
	emit(ev)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.matrixSpec(s.limits)
	if err != nil {
		s.writeError(w, err)
		return
	}
	canon, err := spec.Canonical()
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	hash, err := canon.Hash()
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	// A matrix is one shape of sweep: the job runs its sweep, and the
	// finished sweep folds back into the matrix shape on the way out.
	sweep, err := ltp.NewMatrixSweep(canon)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	id, err := s.jobs.admit(hash)
	if err != nil {
		if errors.Is(err, errBusy) {
			s.writeBusy(w, err, hash)
			return
		}
		s.writeError(w, err)
		return
	}
	job, err := s.engine.Submit(context.Background(), sweep)
	if err != nil {
		s.jobs.release()
		s.writeError(w, badRequest("%v", err))
		return
	}
	t := s.jobs.register(newTrackedJob(id, KindMatrix, hash, job, &canon, wantsStream(r)))
	if s.logf != nil {
		s.logf("campaign %s submitted: %d runs, hash %s", id, job.TotalRuns(), hash)
	}
	s.respondSubmitted(w, r, t)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.sweepSpec(s.limits)
	if err != nil {
		s.writeError(w, err)
		return
	}
	hash, err := spec.Hash()
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	id, err := s.jobs.admit(hash)
	if err != nil {
		if errors.Is(err, errBusy) {
			s.writeBusy(w, err, hash)
			return
		}
		s.writeError(w, err)
		return
	}
	// The job deliberately outlives the submitting request (fetch it
	// via /v1/jobs/{id}); Server.Shutdown cancels it at drain time.
	job, err := s.engine.Submit(context.Background(), spec)
	if err != nil {
		s.jobs.release()
		s.writeError(w, badRequest("%v", err))
		return
	}
	t := s.jobs.register(newTrackedJob(id, KindSweep, hash, job, nil, wantsStream(r)))
	if s.logf != nil {
		s.logf("sweep %s submitted: %d runs, hash %s", id, job.TotalRuns(), hash)
	}
	s.respondSubmitted(w, r, t)
}

// JobsResponse is the GET /v1/jobs body, newest first.
type JobsResponse struct {
	// Jobs lists every campaign this process has served.
	Jobs []JobView `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	resp := JobsResponse{Jobs: []JobView{}}
	for _, t := range s.jobs.list() {
		resp.Jobs = append(resp.Jobs, t.view())
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &apiError{status: http.StatusNotFound, msg: "no such job"})
		return
	}
	s.writeJSON(w, http.StatusOK, jobResponse(t))
}

// handleJobDelete cancels a campaign: queued cells never simulate,
// in-flight cells abort mid-pipeline, and the job settles in status
// canceled. Cancelling a finished job is a no-op; either way the
// response is the job's current view (the call is idempotent).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	t, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, &apiError{status: http.StatusNotFound, msg: "no such job"})
		return
	}
	t.job.Cancel()
	if s.logf != nil {
		s.logf("campaign %s cancel requested", t.id)
	}
	s.writeJSON(w, http.StatusOK, jobResponse(t))
}
