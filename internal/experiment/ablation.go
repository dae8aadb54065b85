package experiment

import "ltp/internal/core"

// ablationVariant describes one design-choice ablation of the realistic
// LTP (128 entries, 4 ports, NU-only unless stated).
type ablationVariant struct {
	Name string
	Mut  func(*core.Config)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"paper design (proximity)", func(*core.Config) {}},
		{"eager wakeup", func(c *core.Config) { c.Wake = core.WakeEager }},
		{"lazy wakeup", func(c *core.Config) { c.Wake = core.WakeLazy }},
		{"no urgent escape", func(c *core.Config) { c.DisableUrgentEscape = true }},
		{"monitor always on", func(c *core.Config) { c.MonitorForceOn = true }},
		{"1 port", func(c *core.Config) { c.Ports = 1 }},
		{"tiny UIT (8)", func(c *core.Config) { c.UITEntries = 8 }},
	}
}

// Ablation quantifies the design choices DESIGN.md calls out: the ROB-
// proximity wakeup policy, the urgent-escape rule for the parked bit, the
// DRAM-timer monitor, port count, and UIT sizing. Reported as percent
// performance versus the IQ:64/RF:128 baseline on the MLP-sensitive group
// (the regime where the choices bind).
func (s *Suite) Ablation() *Table {
	g := s.Classify()
	variants := ablationVariants()

	var jobs []job
	for _, wl := range g.Sensitive {
		jobs = append(jobs, job{wlName: wl, pcfg: realisticConfig(64, 128)})
		for _, v := range variants {
			lc := realisticLTP(128, 4)
			v.Mut(&lc)
			jobs = append(jobs, job{
				wlName: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: lc,
			})
		}
	}
	res := s.runAll(jobs)

	per := len(variants) + 1
	t := &Table{Title: "Ablations [mlp-sensitive]: perf % vs base IQ:64/RF:128",
		Cols: []string{"perf %"}}
	for vi, v := range variants {
		var ratios []float64
		for wi := range g.Sensitive {
			base := res[wi*per].Cycles
			r := res[wi*per+1+vi].Cycles
			ratios = append(ratios, float64(base)/float64(r))
		}
		t.Rows = append(t.Rows, RowData{Label: v.Name,
			Cells: []float64{(geomeanRatio(ratios) - 1) * 100}})
	}
	t.Notes = append(t.Notes,
		"eager wakeup defeats late allocation (registers re-pressured); lazy wakeup risks commit stalls",
		"no urgent escape reproduces the loop-carried parked-bit cascade that serializes misses")
	return t
}
