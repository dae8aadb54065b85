package ltp_test

import (
	"context"
	"testing"

	"ltp"
	"ltp/internal/stats"
)

// quickMatrix is the smallest campaign that still exercises seed
// replication, the LPT pool and the LTP config column.
func quickMatrix() ltp.MatrixSpec {
	return ltp.MatrixSpec{
		Scale:       0.05,
		WarmInsts:   3_000,
		DetailInsts: 8_000,
		Seeds:       3,
	}
}

// submitMatrix runs a matrix campaign on e as its sweep and folds the
// finished sweep back into the matrix shape.
func submitMatrix(tb testing.TB, e *ltp.Engine, spec ltp.MatrixSpec) (*ltp.MatrixResult, *ltp.Job) {
	tb.Helper()
	sweep, err := ltp.NewMatrixSweep(spec)
	if err != nil {
		tb.Fatal(err)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		tb.Fatal(err)
	}
	sr, err := job.Wait()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ltp.MatrixResultFromSweep(spec, sr)
	if err != nil {
		tb.Fatal(err)
	}
	return res, job
}

// referenceMatrix computes a matrix the slow, independent way: every
// replicate through its own RunContext — no engine, sweep or cache —
// and each cell's metrics folded with stats.Summarize in seed order.
func referenceMatrix(tb testing.TB, spec ltp.MatrixSpec) *ltp.MatrixResult {
	tb.Helper()
	c, err := spec.Canonical()
	if err != nil {
		tb.Fatal(err)
	}
	out := &ltp.MatrixResult{Scenarios: c.Scenarios, Seeds: c.Seeds}
	for _, cfg := range c.Configs {
		out.Configs = append(out.Configs, cfg.Name)
	}
	for _, scn := range c.Scenarios {
		for _, cfg := range c.Configs {
			var cpi, ipc, mlp, lat, parked []float64
			for k := 0; k < c.Seeds; k++ {
				r, err := ltp.RunContext(context.Background(), ltp.RunSpec{
					Scenario: scn, Knobs: c.Knobs, Seed: c.BaseSeed + int64(k),
					Scale: c.Scale, WarmInsts: c.WarmInsts, WarmMode: c.WarmMode,
					MaxInsts: c.DetailInsts, Pipeline: cfg.Pipeline,
					UseLTP: cfg.UseLTP, LTP: cfg.LTP,
					Backend: c.Backend, Intervals: c.Intervals,
				})
				if err != nil {
					tb.Fatal(err)
				}
				cpi, ipc, mlp = append(cpi, r.CPI), append(ipc, r.IPC), append(mlp, r.MLP)
				lat = append(lat, r.AvgLoadLatency)
				if r.LTP != nil {
					parked = append(parked, r.LTP.AvgInsts)
				}
			}
			cell := ltp.MatrixCell{
				Scenario: scn, Config: cfg.Name,
				CPI: stats.Summarize(cpi), IPC: stats.Summarize(ipc),
				MLP: stats.Summarize(mlp), AvgLoadLat: stats.Summarize(lat),
			}
			if cfg.UseLTP {
				cell.Parked = stats.Summarize(parked)
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out
}

// TestScenarioRunDeterminism pins the property the whole campaign
// layer rests on: the same RunSpec (same scenario, knobs, scale, seed,
// budgets) simulated twice yields an identical statistics struct.
func TestScenarioRunDeterminism(t *testing.T) {
	for _, scn := range []string{"branchy", "hashjoin", "ptrchase"} {
		spec := ltp.RunSpec{
			Scenario:  scn,
			Seed:      42,
			Scale:     0.05,
			WarmInsts: 3_000,
			MaxInsts:  8_000,
			UseLTP:    true,
		}
		a, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Result != b.Result {
			t.Errorf("%s: identical specs diverged:\n a: %+v\n b: %+v", scn, a.Result, b.Result)
		}
		if *a.LTP != *b.LTP {
			t.Errorf("%s: LTP stats diverged across identical runs", scn)
		}
	}
}

// TestMatrixSeedSpread runs one cell with three seeds and asserts the
// aggregation sees real seed-to-seed variation: CI width > 0. This is
// the single-seed blind spot the matrix exists to catch — a campaign
// whose replicates are secretly identical would report CI 0.
func TestMatrixSeedSpread(t *testing.T) {
	spec := quickMatrix()
	spec.Scenarios = []string{"branchy", "hashjoin"}
	spec.Configs = []ltp.MatrixConfig{{Name: "IQ64"}}
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()
	res, _ := submitMatrix(t, e, spec)
	for _, scn := range spec.Scenarios {
		cell := res.Cell(scn, "IQ64")
		if cell == nil {
			t.Fatalf("cell %s/IQ64 missing", scn)
		}
		if cell.CPI.N != 3 {
			t.Errorf("%s: N = %d, want 3", scn, cell.CPI.N)
		}
		if cell.CPI.CI95 <= 0 {
			t.Errorf("%s: CPI CI95 = %v, want > 0 (seeds produced identical CPI?)", scn, cell.CPI.CI95)
		}
		if cell.CPI.Mean <= 0 {
			t.Errorf("%s: CPI mean %v", scn, cell.CPI.Mean)
		}
	}
}

// TestMatrixDeterminism asserts a whole matrix is reproducible: two
// identical campaigns on separate engines (no shared cache) aggregate
// to identical cells (the worker pool's dispatch order must not leak
// into results).
func TestMatrixDeterminism(t *testing.T) {
	spec := quickMatrix()
	spec.Scenarios = []string{"prodcons"}
	spec.Seeds = 2
	var res [2]*ltp.MatrixResult
	for i, par := range []int{1, 4} {
		e := newTestEngine(t, ltp.EngineConfig{Parallelism: par})
		res[i], _ = submitMatrix(t, e, spec)
		e.Close()
	}
	a, b := res[0], res[1]
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d diverged:\n a: %+v\n b: %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// TestMatrixFullCrossRace drives the full default cross-product
// (every family × all three default configs) through the worker pool
// with ≥ 4 workers. Under `go test -race` (the CI gate) this is the
// scenario-matrix race coverage; it also checks cell bookkeeping and
// that the LTP column actually parks somewhere.
func TestMatrixFullCrossRace(t *testing.T) {
	spec := quickMatrix()
	spec.Seeds = 2
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 6})
	defer e.Close()
	res, _ := submitMatrix(t, e, spec)
	nFams := len(ltp.Scenarios())
	if nFams < 6 {
		t.Fatalf("only %d scenario families", nFams)
	}
	if want := nFams * 3; len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	parkedSomewhere := false
	for _, c := range res.Cells {
		if c.CPI.N != 2 || c.CPI.Mean <= 0 {
			t.Errorf("cell %s/%s malformed: %+v", c.Scenario, c.Config, c.CPI)
		}
		if c.Config == "IQ32+LTP" && c.Parked.Mean > 0 {
			parkedSomewhere = true
		}
	}
	if !parkedSomewhere {
		t.Error("no scenario parked any instructions under IQ32+LTP")
	}
}

// TestMatrixUnknownScenario pins the validation path.
func TestMatrixUnknownScenario(t *testing.T) {
	spec := quickMatrix()
	spec.Scenarios = []string{"no-such-family"}
	if _, err := ltp.NewMatrixSweep(spec); err == nil {
		t.Error("unknown scenario accepted")
	}
}
