package experiment

import (
	"ltp/internal/mem"
	"ltp/internal/pipeline"
)

// WIBvsLTP compares LTP against the Waiting Instruction Buffer baseline
// (Lebeck et al., the paper's §6 related work) on the two resources that
// separate them: both relieve IQ pressure, but only LTP's front-end
// parking delays register allocation. Rows are percent performance versus
// the Table 1 baseline on the MLP-sensitive group.
func (s *Suite) WIBvsLTP() []*Table {
	g := s.Classify()

	type variant struct {
		Name string
		Cfg  func(iq, rf int) pipeline.Config
		LTP  bool
	}
	variants := []variant{
		{"NoLTP", func(iq, rf int) pipeline.Config { return realisticConfig(iq, rf) }, false},
		{"WIB(1024)", func(iq, rf int) pipeline.Config {
			c := realisticConfig(iq, rf)
			c.WIBSize = 1024
			c.WIBPorts = 4
			return c
		}, false},
		{"LTP(NU 128/4p)", func(iq, rf int) pipeline.Config { return realisticConfig(iq, rf) }, true},
	}

	rows := []struct {
		Name string
		IQ   []int
		RF   []int
	}{
		{"IQ sweep (RF:128)", []int{64, 32, 16}, nil},
		{"RF sweep (IQ:64)", nil, []int{128, 96, 64}},
	}

	var tables []*Table
	for _, row := range rows {
		sizes := row.IQ
		isIQ := true
		if sizes == nil {
			sizes = row.RF
			isIQ = false
		}

		var jobs []job
		type ref struct{ vi, si, wi int }
		var refs []ref
		for wi, wl := range g.Sensitive {
			jobs = append(jobs, job{wlName: wl, pcfg: realisticConfig(64, 128)})
			refs = append(refs, ref{-1, 0, wi})
			for vi, v := range variants {
				for si, size := range sizes {
					iq, rf := 64, 128
					if isIQ {
						iq = size
					} else {
						rf = size
					}
					jobs = append(jobs, job{
						wlName: wl, pcfg: v.Cfg(iq, rf),
						useLTP: v.LTP, lcfg: realisticLTP(128, 4),
					})
					refs = append(refs, ref{vi, si, wi})
				}
			}
		}
		res := s.runAll(jobs)

		base := make([]uint64, len(g.Sensitive))
		grid := make([][][]uint64, len(variants))
		for vi := range grid {
			grid[vi] = make([][]uint64, len(sizes))
			for si := range grid[vi] {
				grid[vi][si] = make([]uint64, len(g.Sensitive))
			}
		}
		for k, r := range refs {
			if r.vi < 0 {
				base[r.wi] = res[k].Cycles
			} else {
				grid[r.vi][r.si][r.wi] = res[k].Cycles
			}
		}

		t := &Table{Title: "WIB vs LTP [" + row.Name + ", mlp-sensitive]: perf % vs base IQ:64/RF:128"}
		for _, size := range sizes {
			prefix := "IQ:"
			if !isIQ {
				prefix = "RF:"
			}
			t.Cols = append(t.Cols, prefix+sizeLabel(size))
		}
		for vi, v := range variants {
			r := RowData{Label: v.Name}
			for si := range sizes {
				ratios := make([]float64, len(g.Sensitive))
				for wi := range g.Sensitive {
					ratios[wi] = float64(base[wi]) / float64(grid[vi][si][wi])
				}
				r.Cells = append(r.Cells, (geomeanRatio(ratios)-1)*100)
			}
			t.Rows = append(t.Rows, r)
		}
		t.Notes = append(t.Notes,
			"WIB drains miss-dependent instructions from the IQ but keeps their registers;",
			"LTP parks before allocation, so only LTP survives the RF shrink (paper §6)")
		tables = append(tables, t)
		s.logf("wibvsltp: %s done", row.Name)
	}
	return tables
}

// DRAMModelStudy compares the fixed-latency DRAM against the banked DDR3
// model (row buffers, bank queueing, bus contention) for the baseline and
// LTP designs — a substitution-sensitivity check for the reproduction.
func (s *Suite) DRAMModelStudy() *Table {
	g := s.Classify()
	ddr := mem.DefaultDRAMConfig()

	mkCfg := func(banked bool, iq, rf int) pipeline.Config {
		c := realisticConfig(iq, rf)
		if banked {
			c.Hier.DRAM = &ddr
		}
		return c
	}

	type variant struct {
		Name   string
		Banked bool
		IQ, RF int
		LTP    bool
	}
	variants := []variant{
		{"fixed: base 64/128", false, 64, 128, false},
		{"fixed: LTP 32/96", false, 32, 96, true},
		{"ddr3: base 64/128", true, 64, 128, false},
		{"ddr3: LTP 32/96", true, 32, 96, true},
	}

	var jobs []job
	for _, wl := range g.Sensitive {
		for _, v := range variants {
			jobs = append(jobs, job{
				wlName: wl, pcfg: mkCfg(v.Banked, v.IQ, v.RF),
				useLTP: v.LTP, lcfg: realisticLTP(128, 4),
			})
		}
	}
	res := s.runAll(jobs)

	t := &Table{Title: "DRAM model study [mlp-sensitive]",
		Cols: []string{"CPI", "MLP", "loadLat"}}
	per := len(variants)
	for vi, v := range variants {
		var cpi, mlp, lat []float64
		for wi := range g.Sensitive {
			r := res[wi*per+vi]
			cpi = append(cpi, r.CPI)
			mlp = append(mlp, r.MLP)
			lat = append(lat, r.AvgLoadLatency)
		}
		t.Rows = append(t.Rows, RowData{Label: v.Name,
			Cells: []float64{geomeanRatio(cpi), mean(mlp), mean(lat)}})
	}
	t.Notes = append(t.Notes,
		"the LTP win must survive the memory-model substitution: compare the fixed and ddr3 pairs")
	return t
}
