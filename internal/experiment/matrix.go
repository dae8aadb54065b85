package experiment

// The scenario-matrix campaign surface: Suite.Matrix submits the matrix
// sweep (ltp.NewMatrixSweep) to the suite's engine with the suite's
// budgets and renders the aggregate as a mean ± 95% CI table — the
// campaign's answer to single-seed figure points.

import (
	"context"
	"fmt"
	"strings"

	"ltp"
)

// Matrix runs the scenario-matrix campaign (scenarios × configs ×
// seeds; empty scenarios = every family, seeds <= 0 = 3) with the
// suite's budgets, backend and interval count and returns the rendered
// table.
func (s *Suite) Matrix(scenarios []string, seeds int) (*Table, error) {
	spec := ltp.MatrixSpec{
		Scenarios:   scenarios,
		Seeds:       seeds,
		Scale:       s.Scale,
		WarmInsts:   s.WarmInsts,
		DetailInsts: s.DetailInsts,
		WarmMode:    s.WarmMode,
		Backend:     s.Backend,
		Intervals:   s.Intervals,
	}
	sweep, err := ltp.NewMatrixSweep(spec)
	if err != nil {
		return nil, err
	}
	sr, err := s.runSweep(sweep)
	if err != nil {
		return nil, err
	}
	res, err := ltp.MatrixResultFromSweep(spec, sr)
	if err != nil {
		return nil, err
	}
	s.logf("matrix: %d scenario(s) x %d config(s) x %d seed(s)",
		len(res.Scenarios), len(res.Configs), res.Seeds)
	return MatrixTable(res), nil
}

// TriageMatrix runs the scenario matrix as a two-phase fidelity-triage
// sweep: the model backend estimates every cell, the topK best
// (lowest estimated mean CPI) cells re-run cycle-accurately, and both
// phases render as tables — the estimates with their backend column,
// the detailed selection below.
func (s *Suite) TriageMatrix(scenarios []string, seeds, topK int) ([]*Table, error) {
	sweep, err := ltp.NewMatrixSweep(ltp.MatrixSpec{
		Scenarios:   scenarios,
		Seeds:       seeds,
		Scale:       s.Scale,
		WarmInsts:   s.WarmInsts,
		DetailInsts: s.DetailInsts,
		WarmMode:    s.WarmMode,
	})
	if err != nil {
		return nil, err
	}
	sweep.Triage = &ltp.TriageSpec{TopK: topK}
	res, err := s.runSweep(sweep)
	if err != nil {
		return nil, err
	}
	s.logf("triage: %d cells estimated on the model backend, top %d re-run cycle-accurately",
		len(res.Cells), topK)
	return []*Table{
		sweepCellTable(fmt.Sprintf("Triage estimates (model backend): %d cells", len(res.Cells)), res.Cells),
		sweepCellTable(fmt.Sprintf("Detailed top-%d (cycle backend)", topK), res.Triage.Detailed),
	}, nil
}

// runSweep submits a sweep to the suite's engine and waits for its
// result.
func (s *Suite) runSweep(sweep ltp.SweepSpec) (*ltp.SweepResult, error) {
	job, err := s.engine().Submit(context.Background(), sweep)
	if err != nil {
		return nil, err
	}
	return job.Wait()
}

// sweepCellTable renders sweep cells as a mean ± CI table, one row per
// cell in cell order.
func sweepCellTable(title string, cells []ltp.SweepCell) *Table {
	t := &Table{
		Title: title,
		Cols:  []string{"CPI", "CPI ±95", "IPC", "MLP", "loadLat", "parked", "parked ±95"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, RowData{
			Label: strings.Join(c.Coords, " "),
			Cells: []float64{
				c.CPI.Mean, c.CPI.CI95,
				c.IPC.Mean, c.MLP.Mean, c.AvgLoadLat.Mean,
				c.Parked.Mean, c.Parked.CI95,
			},
		})
	}
	return t
}

// MatrixTable renders a finished matrix as one row per scenario ×
// config with mean and ±95% CI columns. A CI column of 0.00 with
// n >= 2 means the metric is seed-invariant; CI columns are the whole
// point of the matrix — single-seed campaigns cannot distinguish a
// real effect from seed luck.
func MatrixTable(res *ltp.MatrixResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Scenario matrix: %d scenario(s) x %d config(s), %d seed(s) per cell",
			len(res.Scenarios), len(res.Configs), res.Seeds),
		Cols: []string{"CPI", "CPI ±95", "IPC", "MLP", "loadLat", "parked", "parked ±95"},
	}
	for _, scn := range res.Scenarios {
		for _, cfg := range res.Configs {
			c := res.Cell(scn, cfg)
			if c == nil {
				continue
			}
			t.Rows = append(t.Rows, RowData{
				Label: scn + " " + cfg,
				Cells: []float64{
					c.CPI.Mean, c.CPI.CI95,
					c.IPC.Mean, c.MLP.Mean, c.AvgLoadLat.Mean,
					c.Parked.Mean, c.Parked.CI95,
				},
			})
		}
	}
	t.Notes = append(t.Notes,
		"mean ± half-width of the 95% CI (Student-t) over seed replicates",
		"parked is the time-average of LTP-parked instructions (0 without LTP)")
	return t
}
