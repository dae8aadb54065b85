package server

import (
	"fmt"
	"sync"
	"time"

	"ltp"
)

// JobStatus is a campaign job's lifecycle state.
type JobStatus string

// Job lifecycle: running until the engine resolves every cell, then
// done (result available), failed (error available) or canceled
// (DELETE /v1/jobs/{id}, or server drain).
const (
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// JobKind tells the two campaign shapes apart in listings and
// responses.
type JobKind string

// Campaign shapes: the scenario×config×seed matrix and the
// generalized sweep.
const (
	KindMatrix JobKind = "matrix"
	KindSweep  JobKind = "sweep"
)

// JobView is the JSON shape of one campaign job (GET /v1/jobs).
type JobView struct {
	// ID addresses the job (GET/DELETE /v1/jobs/{id}).
	ID string `json:"id"`
	// Kind is "matrix" or "sweep".
	Kind JobKind `json:"kind"`
	// Hash is the campaign's content address — identical campaigns
	// share it even across jobs.
	Hash string `json:"hash"`
	// Status is running, done, failed or canceled.
	Status JobStatus `json:"status"`
	// Error holds the failure or cancellation cause when Status is
	// failed or canceled.
	Error string `json:"error,omitempty"`
	// Progress snapshots the cell counters at view time.
	Progress ltp.Progress `json:"progress"`
	// SubmittedAt is the server-local submission time (RFC 3339).
	SubmittedAt string `json:"submitted_at"`
}

// trackedJob pairs a sweep job with its registry identity and an
// append-only log of its streamed cell results — the NDJSON stream's
// source. Exactly one stream can exist per job (the submitting
// request's, reserved at registration; there is no reconnect
// endpoint), and the log is dropped once the job finishes and that
// stream — if any — has ended.
type trackedJob struct {
	id        string
	kind      JobKind
	hash      string
	job       *ltp.Job
	matrix    *ltp.MatrixSpec // canonical campaign of a matrix-kind job (result conversion)
	submitted time.Time

	matrixOnce sync.Once
	matrixRes  *ltp.MatrixResult // the folded matrix result, once done

	mu      sync.Mutex
	cells   []ltp.CellResult
	notify  chan struct{} // closed and replaced on every append
	logDone chan struct{} // closed when the cell stream has fully drained
	streams int           // NDJSON streams reading the log (reserved at submit)
}

// newTrackedJob wraps a submitted job and starts draining its cell
// stream into the log. reserveStream pre-counts the submitting
// request's own NDJSON stream so the log cannot be released between
// registration and that stream's first read; streams are only ever
// created by the submitting request, so once the job finishes and the
// count drops to zero the log — potentially thousands of full
// RunResults — is dropped rather than retained for the registry's
// whole 128-job history.
func newTrackedJob(id string, kind JobKind, hash string, job *ltp.Job, matrix *ltp.MatrixSpec, reserveStream bool) *trackedJob {
	t := &trackedJob{
		id: id, kind: kind, hash: hash, job: job, matrix: matrix,
		submitted: time.Now(),
		notify:    make(chan struct{}),
		logDone:   make(chan struct{}),
	}
	if reserveStream {
		t.streams = 1
	}
	go func() {
		for c := range job.Cells() {
			t.mu.Lock()
			t.cells = append(t.cells, c)
			close(t.notify)
			t.notify = make(chan struct{})
			t.mu.Unlock()
		}
		// Mark completion and wake any stream blocked on the current
		// notify channel — without this final wakeup a stream that read
		// the last cell before logDone closed would wait forever.
		t.mu.Lock()
		close(t.logDone)
		close(t.notify)
		t.notify = make(chan struct{})
		t.mu.Unlock()
	}()
	return t
}

// cellsFrom returns the logged cells from index from on, plus a
// channel that signals further appends and whether the log is
// complete.
func (t *trackedJob) cellsFrom(from int) (cells []ltp.CellResult, more <-chan struct{}, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < len(t.cells) {
		cells = t.cells[from:]
	}
	select {
	case <-t.logDone:
		done = true
	default:
	}
	return cells, t.notify, done
}

// streamFinished releases one reserved/active stream slot and drops
// the log if it was the last and the job is over.
func (t *trackedJob) streamFinished() {
	t.mu.Lock()
	t.streams--
	t.mu.Unlock()
	t.maybeReleaseLog()
}

// maybeReleaseLog drops the cell log once the job has finished, the
// drain goroutine has completed, and no stream is (or can ever be)
// reading it.
func (t *trackedJob) maybeReleaseLog() {
	select {
	case <-t.job.Done():
	default:
		return
	}
	select {
	case <-t.logDone:
	default:
		return
	}
	t.mu.Lock()
	if t.streams == 0 {
		t.cells = nil
	}
	t.mu.Unlock()
}

// view snapshots the job for JSON rendering.
func (t *trackedJob) view() JobView {
	v := JobView{
		ID:          t.id,
		Kind:        t.kind,
		Hash:        t.hash,
		Status:      JobRunning,
		Progress:    t.job.Progress(),
		SubmittedAt: t.submitted.UTC().Format(time.RFC3339),
	}
	select {
	case <-t.job.Done():
		_, err := t.job.Wait()
		switch {
		case err == nil:
			v.Status = JobDone
		case t.job.Canceled():
			v.Status, v.Error = JobCanceled, err.Error()
		default:
			v.Status, v.Error = JobFailed, err.Error()
		}
	default:
	}
	return v
}

// maxRetainedJobs bounds how many finished campaigns the registry
// keeps addressable (oldest finished jobs are evicted first; active
// campaigns are never evicted). The result cache outlives a job's
// registry entry, so re-submitting an evicted campaign is still all
// cache hits.
const maxRetainedJobs = 128

// registry tracks submitted campaigns, enforces the active-job
// backpressure bound, and retains at most maxRetainedJobs finished
// campaigns so a long-running service cannot grow without limit.
type registry struct {
	mu       sync.Mutex
	idle     *sync.Cond // broadcast whenever active drops
	seq      int
	total    int
	jobs     map[string]*trackedJob
	order    []string // submission order, for listing and eviction
	active   int
	max      int
	finished map[string]bool
}

func newRegistry(maxActive int) *registry {
	r := &registry{
		jobs:     make(map[string]*trackedJob),
		finished: make(map[string]bool),
		max:      maxActive,
	}
	r.idle = sync.NewCond(&r.mu)
	return r
}

// errBusy is the 429 the registry returns at the active-job bound (the
// handler decorates it with Retry-After and duplicate-job hints).
var errBusy = &apiError{status: 429, msg: "too many active campaigns; retry after one finishes"}

// admit reserves an active-job slot and returns the new job's id, or
// errBusy at the bound. The caller must call either register (on
// successful submission) or release (on failure).
func (r *registry) admit(hash string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active >= r.max {
		return "", errBusy
	}
	r.active++
	r.seq++
	short := hash
	if i := len("mx1:"); len(short) > i+8 {
		short = short[i : i+8]
	}
	return fmt.Sprintf("j%04d-%s", r.seq, short), nil
}

// release returns an admitted slot without registering (submission
// failed validation downstream).
func (r *registry) release() {
	r.mu.Lock()
	r.active--
	r.idle.Broadcast()
	r.mu.Unlock()
}

// register records the job and arranges the slot's release (and
// retention pruning) when the campaign finishes.
func (r *registry) register(t *trackedJob) *trackedJob {
	r.mu.Lock()
	r.jobs[t.id] = t
	r.order = append(r.order, t.id)
	r.total++
	r.mu.Unlock()
	go func() {
		<-t.job.Done()
		r.mu.Lock()
		r.active--
		r.finished[t.id] = true
		r.prune()
		r.idle.Broadcast()
		r.mu.Unlock()
		<-t.logDone
		t.maybeReleaseLog()
	}()
	return t
}

// prune evicts the oldest finished jobs beyond maxRetainedJobs
// (caller holds mu). Active campaigns are never evicted and do not
// count against the retention bound.
func (r *registry) prune() {
	for len(r.finished) > maxRetainedJobs {
		evicted := false
		for i, id := range r.order {
			if r.finished[id] {
				delete(r.jobs, id)
				delete(r.finished, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still active
		}
	}
}

// get returns the job by id.
func (r *registry) get(id string) (*trackedJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.jobs[id]
	return t, ok
}

// findActiveByHash returns a still-running job with the given campaign
// hash, if any — the duplicate a 429'd client can poll instead of
// resubmitting.
func (r *registry) findActiveByHash(hash string) (*trackedJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.order {
		if t := r.jobs[id]; t != nil && t.hash == hash && !r.finished[id] {
			return t, true
		}
	}
	return nil, false
}

// list returns every job, newest first.
func (r *registry) list() []*trackedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*trackedJob, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		out = append(out, r.jobs[r.order[i]])
	}
	return out
}

// counts returns (total ever served, active).
func (r *registry) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.active
}

// live snapshots the still-running campaigns.
func (r *registry) live() []*trackedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*trackedJob
	for _, id := range r.order {
		if !r.finished[id] {
			out = append(out, r.jobs[id])
		}
	}
	return out
}

// remainingRuns sums the not-yet-resolved runs of every active
// campaign — the true backlog behind a 429, which the pool's queue
// depth understates because each job coordinator exposes only a
// bounded window of cells to the pool at a time. A triage job's
// remaining work is capped at its detailed-phase size: the model
// pre-pass runs cost milliseconds, and pricing them at the
// cycle-cell EWMA mean would inflate Retry-After by orders of
// magnitude.
func (r *registry) remainingRuns() int {
	total := 0
	for _, t := range r.live() {
		p := t.job.Progress()
		left := p.TotalRuns - p.DoneRuns - p.CanceledRuns
		if spec := t.job.Spec(); spec.Triage != nil {
			if detail := spec.Triage.TopK * spec.Replicates(); left > detail {
				left = detail
			}
		}
		if left > 0 {
			total += left
		}
	}
	return total
}

// cancelActive cancels every still-running campaign (server drain).
func (r *registry) cancelActive() {
	for _, t := range r.live() {
		t.job.Cancel()
	}
}

// awaitIdle blocks until no campaign is active or stop closes; it
// reports whether the registry went idle.
func (r *registry) awaitIdle(stop <-chan struct{}) bool {
	stopped := make(chan struct{})
	var once sync.Once
	if stop != nil {
		go func() {
			select {
			case <-stop:
				r.mu.Lock()
				r.idle.Broadcast()
				r.mu.Unlock()
			case <-stopped:
			}
		}()
	}
	defer once.Do(func() { close(stopped) })
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.active > 0 {
		select {
		case <-stop:
			return false
		default:
		}
		r.idle.Wait()
	}
	return true
}
