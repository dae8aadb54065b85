package ltp_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ltp"
	"ltp/internal/cache"
)

// engineSpec is a tiny but real simulation for engine tests.
func engineSpec() ltp.RunSpec {
	return ltp.RunSpec{Scenario: "branchy", Scale: 0.05, MaxInsts: 5_000}
}

// newTestEngine builds an engine or fails the test (NewEngine can only
// error on a store path, so store-less tests never hit the branch).
func newTestEngine(tb testing.TB, cfg ltp.EngineConfig) *ltp.Engine {
	tb.Helper()
	e, err := ltp.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestEngineRunCached checks the hit path returns the identical result
// without re-simulating.
func TestEngineRunCached(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()

	r1, out1, h1, err := e.RunCached(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if out1 != cache.Miss {
		t.Fatalf("first run outcome = %v; want miss", out1)
	}
	r2, out2, h2, err := e.RunCached(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if out2 != cache.Hit {
		t.Fatalf("second run outcome = %v; want hit", out2)
	}
	if h1 != h2 || h1 == "" {
		t.Fatalf("hashes differ across identical runs: %q vs %q", h1, h2)
	}
	if r1.CPI != r2.CPI || r1.Cycles != r2.Cycles {
		t.Fatalf("cached result differs: CPI %v vs %v", r1.CPI, r2.CPI)
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v; want 1 miss, 1 hit", st)
	}
}

// TestEngineConcurrentDuplicates holds the acceptance criterion: N
// concurrent identical submissions execute the cell exactly once
// (run under -race in short mode).
func TestEngineConcurrentDuplicates(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	const n = 12
	var wg sync.WaitGroup
	results := make([]ltp.RunResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, _, err := e.RunCached(context.Background(), engineSpec())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	if st := e.CacheStats(); st.Misses != 1 {
		t.Fatalf("%d concurrent identical submissions simulated %d times; want 1 (stats %+v)", n, st.Misses, st)
	}
	for i := 1; i < n; i++ {
		if results[i].Cycles != results[0].Cycles {
			t.Fatalf("submission %d got a different result", i)
		}
	}
}

// TestSubmitMatrixAsync checks the async campaign completes, matches
// an independent per-replicate reference cell-for-cell, and a
// resubmission is served entirely from cache.
func TestSubmitMatrixAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix comparison is a long test")
	}
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	spec := quickMatrix()
	res, job := submitMatrix(t, e, spec)
	p := job.Progress()
	if !p.Finished || p.DoneRuns != p.TotalRuns || p.TotalRuns != job.TotalRuns() {
		t.Fatalf("finished progress inconsistent: %+v", p)
	}

	// Cell-for-cell equal to the reference: identical specs must
	// simulate identically on either path.
	ref := referenceMatrix(t, spec)
	for _, scn := range res.Scenarios {
		for _, cfg := range res.Configs {
			a, b := res.Cell(scn, cfg), ref.Cell(scn, cfg)
			if a == nil || b == nil {
				t.Fatalf("missing cell %s/%s", scn, cfg)
			}
			if a.CPI != b.CPI {
				t.Fatalf("cell %s/%s: engine CPI %+v != reference %+v", scn, cfg, a.CPI, b.CPI)
			}
		}
	}

	// Resubmission: every run served from cache, none simulated.
	_, job2 := submitMatrix(t, e, spec)
	if job2.Hash() != job.Hash() {
		t.Fatalf("identical campaigns hash differently")
	}
	if p := job2.Progress(); p.CacheHits != int64(p.TotalRuns) || p.CacheMisses != 0 {
		t.Fatalf("resubmission progress = %+v; want all hits", p)
	}
}

// TestSubmitMatrixSharedCells checks two concurrent overlapping
// campaigns compute each distinct cell once (short-mode, race-covered).
func TestSubmitMatrixSharedCells(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	spec := ltp.MatrixSpec{
		Scenarios:   []string{"branchy"},
		Configs:     []ltp.MatrixConfig{{Name: "IQ64"}},
		Seeds:       2,
		Scale:       0.05,
		DetailInsts: 5_000,
	}
	sweep, err := ltp.NewMatrixSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	resA, errA := jobA.Wait()
	resB, errB := jobB.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if st := e.CacheStats(); st.Misses != 2 {
		t.Fatalf("two overlapping campaigns simulated %d cells; want 2 distinct (stats %+v)", st.Misses, st)
	}
	a, b := resA.Cell("branchy", "IQ64"), resB.Cell("branchy", "IQ64")
	if a.CPI != b.CPI {
		t.Fatalf("overlapping campaigns disagree: %+v vs %+v", a.CPI, b.CPI)
	}
}

// TestSubmitMatrixError checks an invalid campaign is refused before
// it reaches the engine.
func TestSubmitMatrixError(t *testing.T) {
	if _, err := ltp.NewMatrixSweep(ltp.MatrixSpec{Scenarios: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := ltp.MatrixResultFromSweep(ltp.MatrixSpec{Scenarios: []string{"nosuch"}}, &ltp.SweepResult{}); err == nil {
		t.Fatal("result fold accepted an unknown scenario")
	}
}

// TestMatrixResultFromSweepShape checks the fold refuses a sweep
// result that is not the matrix's scenario × config grid instead of
// mislabelling (or indexing past) its cells.
func TestMatrixResultFromSweepShape(t *testing.T) {
	spec := ltp.MatrixSpec{Scenarios: []string{"branchy", "ptrchase"}}
	c, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var grid []ltp.SweepCell
	for _, scn := range c.Scenarios {
		for _, cfg := range c.Configs {
			grid = append(grid, ltp.SweepCell{Coords: []string{scn, cfg.Name}})
		}
	}
	if _, err := ltp.MatrixResultFromSweep(spec, &ltp.SweepResult{Cells: grid}); err != nil {
		t.Fatalf("matching grid refused: %v", err)
	}
	swapped := append([]ltp.SweepCell(nil), grid...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	flat := append([]ltp.SweepCell(nil), grid...)
	flat[0] = ltp.SweepCell{Coords: []string{c.Scenarios[0]}}
	for name, cells := range map[string][]ltp.SweepCell{
		"missing cell": grid[1:],
		"reordered":    swapped,
		"short coords": flat,
	} {
		if _, err := ltp.MatrixResultFromSweep(spec, &ltp.SweepResult{Cells: cells}); err == nil {
			t.Errorf("%s: fold accepted a mismatched result", name)
		}
	}
}

// slowSweep returns a sweep whose cells take long enough (hundreds of
// milliseconds each) that a test can reliably cancel it mid-flight.
func slowSweep(cells int) ltp.SweepSpec {
	axis := ltp.SweepAxis{Name: "seed", Replicate: true}
	for k := 0; k < cells; k++ {
		seed := int64(k)
		axis.Points = append(axis.Points, ltp.SweepPoint{
			Name: string(rune('a' + k)), Patch: ltp.RunPatch{Seed: &seed},
		})
	}
	return ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 600_000},
		Axes: []ltp.SweepAxis{axis},
	}
}

// TestJobCancelMidFlight holds the cancellation acceptance criterion:
// cancelling a sweep mid-flight stops the remaining cells within one
// cell boundary — the in-flight cell aborts mid-pipeline, queued cells
// never simulate — and the job settles as canceled.
func TestJobCancelMidFlight(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 1})
	defer e.Close()

	const cells = 6
	job, err := e.Submit(context.Background(), slowSweep(cells))
	if err != nil {
		t.Fatal(err)
	}
	// Let the first cell get under way, then cancel.
	time.Sleep(100 * time.Millisecond)
	canceledAt := time.Now()
	job.Cancel()

	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	// The in-flight cell aborts within ~1ms of cancel (pipeline-level
	// cancellation checks); 1s is a generous CI bound that still rules
	// out "the cell ran to completion".
	if settle := time.Since(canceledAt); settle > time.Second {
		t.Fatalf("cancel took %v to settle; want well under a cell boundary", settle)
	}
	if _, err := job.Wait(); !errors.Is(err, ltp.ErrJobCanceled) {
		t.Fatalf("Wait err = %v; want ErrJobCanceled", err)
	}
	if !job.Canceled() {
		t.Fatal("job does not report canceled")
	}
	p := job.Progress()
	if p.DoneRuns+p.CanceledRuns != cells {
		t.Fatalf("progress = %+v; want done+canceled == %d", p, cells)
	}
	if p.CanceledRuns == 0 {
		t.Skip("every cell finished before the cancel landed (very fast machine)")
	}
	// The stream closes without delivering the abandoned cells.
	var streamed int
	for range job.Cells() {
		streamed++
	}
	if streamed != p.DoneRuns {
		t.Fatalf("stream delivered %d cells; want DoneRuns = %d", streamed, p.DoneRuns)
	}

	// No stale cancelled entry may be served: resubmitting the LAST
	// cell — guaranteed still queued when the cancel landed, since
	// parallelism is 1 — must actually simulate it.
	misses0 := e.CacheStats().Misses
	lastSeed := int64(cells - 1)
	job2, err := e.Submit(context.Background(), ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 600_000},
		Axes: []ltp.SweepAxis{{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
			{Name: "last", Patch: ltp.RunPatch{Seed: &lastSeed}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if e.CacheStats().Misses == misses0 {
		t.Fatal("resubmission after cancel simulated nothing; cancelled cells were served from cache")
	}
}

// TestRunCachedCanceledWaiterKeepsEntry exercises the engine-level
// single-flight contract: with two concurrent identical RunCached
// calls, cancelling one must not poison the shared cache entry — the
// survivor gets a result and a resubmission is a hit.
func TestRunCachedCanceledWaiterKeepsEntry(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()

	spec := ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 400_000}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := e.RunCached(ctx, spec)
		errCh <- err
	}()
	resCh := make(chan error, 1)
	go func() {
		_, _, _, err := e.RunCached(context.Background(), spec)
		resCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller err = %v; want context.Canceled", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("surviving caller err = %v; want success", err)
	}
	if _, out, _, err := e.RunCached(context.Background(), spec); err != nil || out != cache.Hit {
		t.Fatalf("post-cancel resubmit = %v, %v; want hit", out, err)
	}
}

// TestEngineCloseNoGoroutineLeak asserts (under -race in short mode)
// that Close drains every worker and coordinator goroutine: the
// process-wide goroutine count settles back to its pre-engine level.
func TestEngineCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	if _, _, _, err := e.RunCached(context.Background(), engineSpec()); err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(context.Background(), slowSweep(2))
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	if _, err := job.Wait(); err == nil {
		t.Fatal("cancelled job reported success")
	}
	e.Close()

	// Settle loop: cancelled contexts and pool workers unwind within
	// microseconds, but give the scheduler room under -race.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d -> %d\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
