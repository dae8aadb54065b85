package experiment

// The microarchitectural-frontier experiment: the branch-predictor ×
// prefetcher cross on branch- and memory-bound scenarios, and the
// shared-hierarchy contention study (solo versus a memhog co-runner,
// LTP off versus on). Both tables run through the generalized sweep
// axes (RunSpec.BranchPred / Prefetcher / Corunners), so every cell is
// content-addressed exactly like a service-submitted campaign cell.

import (
	"fmt"

	"ltp"
)

// Microarch produces the predictor × prefetcher cross and the
// co-runner contention comparison.
func (s *Suite) Microarch() []*Table {
	preds := ltp.BranchPredictors()
	prefs := ltp.Prefetchers()
	scenarios := []string{"branchy", "hashjoin", "ptrchase"}

	var specs []ltp.RunSpec
	base := func(scenario string) ltp.RunSpec {
		spec := s.base()
		spec.Scenario = scenario
		return spec
	}
	for _, scn := range scenarios {
		for _, bp := range preds {
			for _, pf := range prefs {
				spec := base(scn)
				spec.BranchPred = bp
				spec.Prefetcher = pf
				specs = append(specs, spec)
			}
		}
	}

	// Contention grid: {solo, +memhog} × {no LTP, LTP NU}, on the
	// memory-bound chase scenario where parking matters most.
	hog := []ltp.Corunner{{Scenario: "memhog"}}
	for _, withHog := range []bool{false, true} {
		for _, useLTP := range []bool{false, true} {
			spec := base("ptrchase")
			spec.UseLTP = useLTP
			if withHog {
				spec.Corunners = hog
			}
			specs = append(specs, spec)
		}
	}
	out := s.runSpecs(specs)

	var tables []*Table
	i := 0
	for _, scn := range scenarios {
		t := &Table{Title: fmt.Sprintf("predictor x prefetcher CPI [%s]", scn)}
		t.Cols = append(t.Cols, prefs...)
		for _, bp := range preds {
			row := RowData{Label: bp}
			for range prefs {
				r := out[i]
				i++
				row.Cells = append(row.Cells, r.CPI)
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}

	ct := &Table{Title: "shared-hierarchy contention [ptrchase]: CPI solo vs +memhog co-runner"}
	ct.Cols = []string{"no LTP", "LTP(NU)"}
	for _, label := range []string{"solo", "+memhog"} {
		row := RowData{Label: label}
		row.Cells = append(row.Cells, out[i].CPI, out[i+1].CPI)
		i += 2
		ct.Rows = append(ct.Rows, row)
	}
	tables = append(tables, ct)
	return tables
}
