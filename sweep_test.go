package ltp_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ltp"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// quickSweepMatrix is a small real campaign both campaign paths run.
func quickSweepMatrix() ltp.MatrixSpec {
	return ltp.MatrixSpec{
		Scenarios: []string{"branchy", "hashjoin"},
		Configs: []ltp.MatrixConfig{
			{Name: "IQ64"},
			{Name: "IQ32+LTP", UseLTP: true},
		},
		Seeds:       2,
		Scale:       0.05,
		DetailInsts: 4_000,
	}
}

// TestNewMatrixSweepHashFixedPoint holds the acceptance criterion: the
// matrix→sweep mapping is a fixed point of MatrixSpec.Canonical —
// equivalent matrices (defaults spelled implicitly or explicitly,
// pre-canonicalized or not) map to equal sweep hashes, and actually
// different campaigns do not.
func TestNewMatrixSweepHashFixedPoint(t *testing.T) {
	m := quickSweepMatrix()
	canon, err := m.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	s1, err := ltp.NewMatrixSweep(m)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ltp.NewMatrixSweep(canon)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("sweep hash not a fixed point of Canonical: %s vs %s", h1, h2)
	}

	// Spelling the defaults explicitly must not perturb the hash.
	explicit := m
	explicit.Scale = 0.05
	explicit.BaseSeed = 0
	cfg := pipeline.DefaultConfig()
	explicit.Configs = []ltp.MatrixConfig{
		{Name: "IQ64", Pipeline: &cfg},
		{Name: "IQ32+LTP", UseLTP: true},
	}
	s3, err := ltp.NewMatrixSweep(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if h3, _ := s3.Hash(); h3 != h1 {
		t.Fatalf("explicit defaults changed the sweep hash: %s vs %s", h3, h1)
	}

	// A genuinely different campaign must hash differently.
	other := m
	other.BaseSeed = 99
	s4, err := ltp.NewMatrixSweep(other)
	if err != nil {
		t.Fatal(err)
	}
	if h4, _ := s4.Hash(); h4 == h1 {
		t.Fatal("different base seed produced the same sweep hash")
	}
}

// summariesEqual compares two matrix cells field-for-field (exact
// float equality: both paths fold the identical deterministic results
// in the identical order).
func summariesEqual(a, b *ltp.MatrixCell) bool {
	return a.CPI == b.CPI && a.IPC == b.IPC && a.MLP == b.MLP &&
		a.AvgLoadLat == b.AvgLoadLat && a.Parked == b.Parked
}

// TestSweepMatrixDifferential holds the acceptance criterion: the
// Engine.Submit sweep path aggregates a matrix campaign exactly as an
// independent per-replicate reference does, and MatrixResultFromSweep
// folds it back into the matrix shape without loss.
func TestSweepMatrixDifferential(t *testing.T) {
	spec := quickSweepMatrix()
	ref := referenceMatrix(t, spec)

	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()
	sweep, err := ltp.NewMatrixSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	mres, err := ltp.MatrixResultFromSweep(spec, sres)
	if err != nil {
		t.Fatal(err)
	}

	for _, scn := range ref.Scenarios {
		for _, cfg := range ref.Configs {
			rc := ref.Cell(scn, cfg)
			sc := sres.Cell(scn, cfg)
			if rc == nil || sc == nil {
				t.Fatalf("missing cell %s/%s on one path", scn, cfg)
			}
			nc := ltp.MatrixCell{
				Scenario: scn, Config: cfg,
				CPI: sc.CPI, IPC: sc.IPC, MLP: sc.MLP,
				AvgLoadLat: sc.AvgLoadLat, Parked: sc.Parked,
			}
			if !summariesEqual(rc, &nc) {
				t.Fatalf("cell %s/%s differs:\nreference: %+v\nSubmit:    %+v", scn, cfg, *rc, nc)
			}
			if sc.Replicates != ref.Seeds {
				t.Fatalf("cell %s/%s replicates = %d; want %d", scn, cfg, sc.Replicates, ref.Seeds)
			}
			if !summariesEqual(rc, mres.Cell(scn, cfg)) {
				t.Fatalf("folded matrix cell %s/%s differs from the reference", scn, cfg)
			}
		}
	}
}

// TestMatrixSweepCarriesIntervals pins the sampled interval count K
// through NewMatrixSweep: every enumerated run hashes as the RunSpec
// with that K, matrices with different K enumerate different sweeps,
// and default-K and cycle matrices keep their addresses.
func TestMatrixSweepCarriesIntervals(t *testing.T) {
	m := ltp.MatrixSpec{
		Scenarios: []string{"branchy"}, Configs: []ltp.MatrixConfig{{Name: "IQ64"}},
		Seeds: 2, Scale: 0.05, DetailInsts: 8_000, Backend: ltp.BackendSampled,
	}
	sweepHash := func(m ltp.MatrixSpec) string {
		t.Helper()
		s, err := ltp.NewMatrixSweep(m)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	k4 := m
	k4.Intervals = 4
	s4, err := ltp.NewMatrixSweep(k4)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := s4.RunHashes()
	if err != nil {
		t.Fatal(err)
	}
	for seed, h := range hashes {
		want, err := ltp.RunSpec{
			Scenario: "branchy", Seed: int64(seed), Scale: 0.05, MaxInsts: 8_000,
			Backend: ltp.BackendSampled, Intervals: 4,
		}.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Errorf("seed %d run hashes as %s; want the K=4 run %s", seed, h, want)
		}
	}
	k16 := m
	k16.Intervals = 16
	if sweepHash(k4) == sweepHash(k16) {
		t.Error("K=4 and K=16 matrices enumerate the same sweep")
	}

	// Addresses from before K reached the sweep base: the default K and
	// a cycle matrix must not move.
	if got, want := sweepHash(m), "sw1:ae540400849b156245f54d65057415302640423b933f92e9c0ffa06ae7b6fa0c"; got != want {
		t.Errorf("default-K sampled matrix sweep moved: %s, want %s", got, want)
	}
	cyc := m
	cyc.Backend = ""
	if got, want := sweepHash(cyc), "sw1:204ce306c1660132da37a8c97e2f5d79d348294687cc738f1c6aee435a0b591a"; got != want {
		t.Errorf("cycle matrix sweep moved: %s, want %s", got, want)
	}
}

// TestSweepCellsStream checks the streaming channel delivers every
// run with coherent coordinates and cache outcomes.
func TestSweepCellsStream(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	sweep, err := ltp.NewMatrixSweep(quickSweepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for c := range job.Cells() {
		if seen[c.Index] {
			t.Fatalf("cell %d delivered twice", c.Index)
		}
		seen[c.Index] = true
		if len(c.Coords) != 3 || c.Hash == "" || c.Err != nil {
			t.Fatalf("bad cell result: %+v", c)
		}
		if c.Outcome != "miss" && c.Outcome != "hit" && c.Outcome != "shared" {
			t.Fatalf("cell %d outcome %q", c.Index, c.Outcome)
		}
		if c.Result.Committed == 0 {
			t.Fatalf("cell %d has an empty result", c.Index)
		}
	}
	if len(seen) != job.TotalRuns() {
		t.Fatalf("stream delivered %d cells; want %d", len(seen), job.TotalRuns())
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepGeneralizedAxes exercises what the matrix could not
// express: an IQ-size axis crossed with an LTP on/off axis over a
// replicated seed axis.
func TestSweepGeneralizedAxes(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	iq64, iq24 := 64, 24
	ltpOn, ltpOff := true, false
	s0, s1 := int64(0), int64(1)
	sweep := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{
			{Name: "iq", Points: []ltp.SweepPoint{
				{Name: "iq64", Patch: ltp.RunPatch{IQSize: &iq64}},
				{Name: "iq24", Patch: ltp.RunPatch{IQSize: &iq24}},
			}},
			{Name: "ltp", Points: []ltp.SweepPoint{
				{Name: "off", Patch: ltp.RunPatch{UseLTP: &ltpOff}},
				{Name: "on", Patch: ltp.RunPatch{UseLTP: &ltpOn}},
			}},
			{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
				{Name: "s0", Patch: ltp.RunPatch{Seed: &s0}},
				{Name: "s1", Patch: ltp.RunPatch{Seed: &s1}},
			}},
		},
	}
	if got := sweep.TotalRuns(); got != 8 {
		t.Fatalf("TotalRuns = %d; want 8", got)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells; want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Replicates != 2 || c.CPI.N != 2 || c.CPI.Mean <= 0 {
			t.Fatalf("cell %v under-aggregated: %+v", c.Coords, c)
		}
	}
	small := res.Cell("iq24", "off")
	big := res.Cell("iq64", "off")
	if small == nil || big == nil {
		t.Fatalf("missing cells: %+v", res.Cells)
	}
	if small.CPI.Mean <= big.CPI.Mean {
		t.Fatalf("IQ24 CPI %.3f not worse than IQ64 %.3f; the axis had no effect",
			small.CPI.Mean, big.CPI.Mean)
	}
	withLTP := res.Cell("iq24", "on")
	if withLTP == nil || withLTP.Parked.N == 0 {
		t.Fatal("LTP axis point did not attach the parking unit")
	}
}

// TestSweepValidation checks the campaign-shape errors all reject
// before any simulation.
func TestSweepValidation(t *testing.T) {
	pt := func(name string) ltp.SweepPoint { return ltp.SweepPoint{Name: name} }
	cases := map[string]ltp.SweepSpec{
		"unnamed axis": {Axes: []ltp.SweepAxis{{Points: []ltp.SweepPoint{pt("a")}}}},
		"empty axis":   {Axes: []ltp.SweepAxis{{Name: "x"}}},
		"dup axis": {Axes: []ltp.SweepAxis{
			{Name: "x", Points: []ltp.SweepPoint{pt("a")}},
			{Name: "x", Points: []ltp.SweepPoint{pt("b")}},
		}},
		"dup point":     {Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{pt("a"), pt("a")}}}},
		"unnamed point": {Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{{}}}}},
		"no source":     {Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{pt("a")}}}},
		"uncacheable base": {
			Base: ltp.RunSpec{Program: &prog.Program{Name: "p"}},
			Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{pt("a")}}},
		},
	}
	for name, spec := range cases {
		if name != "no source" && name != "uncacheable base" && spec.Base.Scenario == "" {
			spec.Base.Scenario = "branchy"
		}
		if _, err := spec.Canonical(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSweepRejectsNoOpAxis checks the distinctness rule: an axis
// whose patches cannot affect the cell (seeds over a fixed kernel,
// which RunSpec.Canonical zeroes) must be rejected rather than
// producing N copies of one simulation dressed up as replicates.
func TestSweepRejectsNoOpAxis(t *testing.T) {
	s0, s1 := int64(0), int64(1)
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Workload: "indirect", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
			{Name: "s0", Patch: ltp.RunPatch{Seed: &s0}},
			{Name: "s1", Patch: ltp.RunPatch{Seed: &s1}},
		}}},
	}
	if _, err := spec.Canonical(); err == nil {
		t.Fatal("seed axis over a fixed kernel accepted; replicates would be identical simulations")
	}
}

// TestSweepRunBoundRejectsBeforeEnumerating checks an astronomically
// wide cross-product is rejected by point-count arithmetic alone —
// never materialized (a 200^4 sweep would OOM if enumerated).
func TestSweepRunBoundRejectsBeforeEnumerating(t *testing.T) {
	wide := func(axis string) ltp.SweepAxis {
		ax := ltp.SweepAxis{Name: axis}
		for i := 0; i < 200; i++ {
			seed := int64(i)
			ax.Points = append(ax.Points, ltp.SweepPoint{
				Name: fmt.Sprintf("p%d", i), Patch: ltp.RunPatch{Seed: &seed},
			})
		}
		return ax
	}
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "branchy"},
		Axes: []ltp.SweepAxis{wide("a"), wide("b"), wide("c"), wide("d")},
	}
	start := time.Now()
	if _, err := spec.Canonical(); err == nil {
		t.Fatal("1.6 billion-run sweep accepted")
	}
	if _, err := spec.Hash(); err == nil {
		t.Fatal("1.6 billion-run sweep hashed")
	}
	if time.Since(start) > time.Second {
		t.Fatal("rejection enumerated the cross-product")
	}
}

// TestRunContextCancelPrompt holds the pipeline-cancellation
// acceptance criterion: a long simulation aborts promptly after
// cancel, returning the context's error and no result.
func TestRunContextCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A run that would take tens of seconds uncancelled.
		_, err := ltp.RunContext(ctx, ltp.RunSpec{
			Scenario: "ptrchase", Scale: 0.5, MaxInsts: 50_000_000,
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it get deep into the cycle loop
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
		// The design target is ~1ms (a 2048-cycle poll interval);
		// 500ms is the generous CI bound that still rules out "ran to
		// completion".
		if lat := time.Since(start); lat > 500*time.Millisecond {
			t.Fatalf("abort latency %v; want prompt", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run never returned")
	}
}

// TestRunContextPreCancelled checks a dead context never simulates.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := ltp.RunContext(ctx, ltp.RunSpec{Scenario: "branchy", MaxInsts: 10_000_000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("pre-cancelled run did work")
	}
}

// TestRunContextCancelDuringWarmup checks the fast functional warm-up
// honours cancellation between chunks.
func TestRunContextCancelDuringWarmup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ltp.RunContext(ctx, ltp.RunSpec{
			Scenario: "gemmblock", Scale: 0.5,
			WarmInsts: 200_000_000, MaxInsts: 1_000,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled warm-up never returned")
	}
}
