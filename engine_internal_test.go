package ltp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ltp/internal/cache"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
)

// TestRunWeightLPTOrder pins the LPT cost heuristic the engine orders
// launches by: a small IQ, the LTP and the oracle pre-pass each make a
// run costlier, and a model estimate ranks below every detailed run.
func TestRunWeightLPTOrder(t *testing.T) {
	withIQ := func(iq int) RunSpec {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize = iq
		return RunSpec{Workload: "gather", Pipeline: &cfg}
	}
	small, big := withIQ(16), withIQ(256)
	ltpRun := small
	ltpRun.UseLTP = true
	oracle := ltpRun
	oracle.Oracle = true
	model := oracle
	model.Oracle, model.Backend = false, BackendModel
	for _, c := range []struct {
		name         string
		heavy, light RunSpec
	}{
		{"small IQ over big IQ", small, big},
		{"LTP over plain", ltpRun, small},
		{"oracle over LTP", oracle, ltpRun},
		{"cycle over model", big, model},
	} {
		if runWeight(c.heavy) <= runWeight(c.light) {
			t.Errorf("%s: %v <= %v", c.name, runWeight(c.heavy), runWeight(c.light))
		}
	}
}

// TestPhaseUnitsHeaviestFirst checks a phase launches its heaviest runs
// first, keeping equal weights in enumeration order.
func TestPhaseUnitsHeaviestFirst(t *testing.T) {
	var runs []sweepRun
	for i, iq := range []int{256, 16, 64, 16} {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize = iq
		runs = append(runs, sweepRun{idx: i, spec: RunSpec{Workload: "gather", Pipeline: &cfg}})
	}
	var got []int
	for _, u := range phaseUnits(runs) {
		got = append(got, u.idx...)
	}
	if fmt.Sprint(got) != "[1 3 2 0]" {
		t.Fatalf("launch order %v; want [1 3 2 0]", got)
	}
}

// TestOracleMemoShared checks runs on one oracle key share a single
// memoized oracle, and a different dependence window builds its own.
func TestOracleMemoShared(t *testing.T) {
	env := runEnv{oracles: cache.New(oracleMemoEntries)}
	spec := RunSpec{Workload: "gather", Scale: 0.05}
	build, _, err := programBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	program := build()
	pcfg := pipeline.DefaultConfig()
	first := env.oracle(spec, program, 20_000, pcfg)
	if again := env.oracle(spec, program, 20_000, pcfg); again != first {
		t.Error("a second run on the same key rebuilt its oracle")
	}
	wide := pcfg
	wide.ROBSize *= 2
	if other := env.oracle(spec, program, 20_000, wide); other == first {
		t.Error("a different ROB window shared the oracle")
	}
}

// holdWorker occupies e's only pool worker until the returned release
// is called, or for two seconds at most, so a caller wrongly queued
// behind it fails its timing bound instead of hanging the test.
func holdWorker(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	time.AfterFunc(2*time.Second, release)
	e.pool.SubmitCtx(context.Background(), sched.TierInteractive, 1, func(context.Context) { <-gate })
	for e.pool.Running() == 0 {
		time.Sleep(time.Millisecond)
	}
	return release
}

// TestRunCachedQueuedDeadline checks a caller whose run is still queued
// behind a busy worker is not held there: its deadline returns
// DeadlineExceeded on time, not once a worker frees up.
func TestRunCachedQueuedDeadline(t *testing.T) {
	e, err := NewEngine(EngineConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := holdWorker(t, e)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, _, err = e.RunCached(ctx, RunSpec{Workload: "gather", Scale: 0.05, MaxInsts: 20_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want DeadlineExceeded", err)
	}
	// The worker stays held throughout, so any return at all proves the
	// caller was not queued behind it; the bound is a loose CI margin.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("queued RunCached returned after %v; want about 50ms", took)
	}
}

// TestJobCancelQueuedModelBatch checks the batched (model-backend) path
// the same way: cancelling a sweep whose batch is queued behind a busy
// worker settles the job at once.
func TestJobCancelQueuedModelBatch(t *testing.T) {
	e, err := NewEngine(EngineConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := holdWorker(t, e)
	defer release()

	var points []SweepPoint
	for _, iq := range []int{16, 32, 64} {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize = iq
		points = append(points, SweepPoint{Name: fmt.Sprint(iq), Patch: RunPatch{Pipeline: &cfg}})
	}
	job, err := e.Submit(context.Background(), SweepSpec{
		Base: RunSpec{Workload: "gather", Scale: 0.05, MaxInsts: 20_000, Backend: BackendModel},
		Axes: []SweepAxis{{Name: "iq", Points: points}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.pool.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	select {
	case <-job.Done():
	case <-time.After(time.Second):
		t.Fatal("cancelled job with a queued batch did not settle while the worker was busy")
	}
	if _, err := job.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Wait err = %v; want ErrJobCanceled", err)
	}
}
