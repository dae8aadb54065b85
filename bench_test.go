// Benchmarks: one per table/figure of the paper (DESIGN.md §4). Each
// figure benchmark regenerates the corresponding rows/series with reduced
// budgets and prints them, so `go test -bench=.` doubles as the experiment
// harness smoke run; cmd/ltpexperiments runs the full-size campaign.
//
// Micro-benchmarks of the simulator itself (instructions per second,
// classification-table costs) come after the figure benchmarks.
package ltp_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/experiment"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sim"
	"ltp/internal/workload"
)

// benchSuite returns a fresh, bench-sized experiment suite on its own
// engine, so every iteration simulates rather than hitting the cache an
// earlier one filled.
func benchSuite(tb testing.TB) *experiment.Suite {
	s := experiment.NewSuite(0.05, 8_000, 25_000)
	s.Quiet = true
	s.Engine = newTestEngine(tb, ltp.EngineConfig{})
	tb.Cleanup(s.Engine.Close)
	return s
}

var printOnce sync.Map

// printTables prints the regenerated rows once per benchmark name.
func printTables(name string, tables ...*experiment.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Println("\n=== " + name + " (bench-sized budgets; see EXPERIMENTS.md for full runs) ===")
	for _, t := range tables {
		fmt.Println(t.String())
	}
}

// BenchmarkTable1Baseline measures a full baseline-configuration
// simulation (Table 1 core) on the paper's example loop.
func BenchmarkTable1Baseline(b *testing.B) {
	if _, loaded := printOnce.LoadOrStore("table1", true); !loaded {
		fmt.Println(experiment.Table1())
	}
	for i := 0; i < b.N; i++ {
		r := ltp.MustRun(ltp.RunSpec{
			Workload: "indirect", Scale: 0.05,
			WarmInsts: 8_000, MaxInsts: 25_000,
		})
		b.ReportMetric(r.CPI, "CPI")
	}
}

// BenchmarkFig1 regenerates Figure 1 (CPI, outstanding requests, resource
// usage for IQ:32 / IQ:32+LTP / IQ:256).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		tables := s.Fig1()
		printTables("Figure 1", tables...)
		// Headline metric: MLP recovered by LTP relative to IQ:256
		// (paper: LTP achieves about half; our kernels nearly all).
		mlpLTP := tables[1].Rows[1].Cells[0]
		mlp256 := tables[1].Rows[2].Cells[0]
		if mlp256 > 0 {
			b.ReportMetric(mlpLTP/mlp256, "MLPfrac")
		}
	}
}

// BenchmarkFig3 regenerates the Figure 3 worked example (tiny IQ).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		t := s.Fig3()
		printTables("Figure 3", t)
		b.ReportMetric(t.Rows[0].Cells[2]-t.Rows[1].Cells[2], "IQfreed")
	}
}

// fig6Once caches the limit study across the four row benchmarks (the
// suite computes all rows in one campaign; re-running it per row would
// quadruple the bench time without measuring anything new).
var (
	fig6Once   sync.Once
	fig6Tables []*experiment.Table
)

// fig6Bench runs one resource row of the Figure 6 limit study.
func fig6Bench(b *testing.B, row string) {
	for i := 0; i < b.N; i++ {
		fig6Once.Do(func() {
			s := benchSuite(b)
			fig6Tables = s.Fig6()
		})
		var keep []*experiment.Table
		for _, t := range fig6Tables {
			if containsRow(t.Title, row) {
				keep = append(keep, t)
			}
		}
		printTables("Figure 6 "+row, keep...)
	}
}

func containsRow(title, row string) bool {
	return len(title) > 0 && (stringContains(title, "["+row+" sweep"))
}

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkFig6IQ..SQ regenerate the four rows of the limit study.
// (The suite computes all rows; each benchmark prints its own row.)
func BenchmarkFig6IQ(b *testing.B) { fig6Bench(b, "IQ") }

// BenchmarkFig6RF regenerates the register-file row of Figure 6.
func BenchmarkFig6RF(b *testing.B) { fig6Bench(b, "RF") }

// BenchmarkFig6LQ regenerates the load-queue row of Figure 6.
func BenchmarkFig6LQ(b *testing.B) { fig6Bench(b, "LQ") }

// BenchmarkFig6SQ regenerates the store-queue row of Figure 6.
func BenchmarkFig6SQ(b *testing.B) { fig6Bench(b, "SQ") }

// nowSeconds returns a monotonic-enough wall-clock reading in seconds
// for coarse speedup metrics.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// sampledFig6Once holds the wall-clock of the cycle-accurate reference
// sweep so BenchmarkSampledFig6IQ can report a speedup without paying
// for the reference on every benchmark iteration.
var (
	sampledFig6Once      sync.Once
	sampledFig6CycleWall float64
)

// sampledFig6Specs returns the Figure 6 IQ-row-equivalent sweep: the
// long hashprobe kernel at four IQ sizes, on the given backend.
func sampledFig6Specs(backend string) []ltp.RunSpec {
	var specs []ltp.RunSpec
	for _, iq := range []int{128, 64, 32, 16} {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize = iq
		specs = append(specs, ltp.RunSpec{
			Workload: "hashprobe", Scale: 0.5,
			WarmInsts: 50_000, MaxInsts: 2_000_000,
			UseLTP: true, Pipeline: &cfg,
			Backend: backend, Intervals: 16,
		})
	}
	return specs
}

// BenchmarkSampledFig6IQ regenerates the Figure 6 IQ row on the
// sampled backend (K=16 checkpointed intervals per cell) over the
// largest kernel budget in the campaign, and reports the wall-clock
// speedup versus the same four cells run cycle-accurately (measured
// once). The accuracy side of the trade — sampled CPI inside the
// reported sampling CI of the cycle CPI — is enforced by
// TestSampledEstimateTracksCycle and TestSampledSpeedup.
func BenchmarkSampledFig6IQ(b *testing.B) {
	run := func(specs []ltp.RunSpec) float64 {
		start := nowSeconds()
		for _, spec := range specs {
			if _, err := ltp.RunContext(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
		return nowSeconds() - start
	}
	sampledFig6Once.Do(func() {
		sampledFig6CycleWall = run(sampledFig6Specs(ltp.BackendCycle))
	})
	b.ResetTimer()
	var wall float64
	for i := 0; i < b.N; i++ {
		wall = run(sampledFig6Specs(ltp.BackendSampled))
	}
	if wall > 0 {
		b.ReportMetric(sampledFig6CycleWall/wall, "xCycle")
	}
	b.ReportMetric(4*2_000_000, "insts/op")
}

// BenchmarkFig7 regenerates the LTP-utilization figure.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		tables := s.Fig7()
		printTables("Figure 7", tables...)
	}
}

// BenchmarkFig10 regenerates the entries/ports performance + ED²P sweep.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		tables := s.Fig10()
		printTables("Figure 10", tables...)
		// Headline: ED2P improvement of the 128/4p design (sensitive).
		b.ReportMetric(tables[1].Rows[2].Cells[1], "ED2P%")
	}
}

// BenchmarkFig11 regenerates the ticket-count sweep.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		tables := s.Fig11()
		printTables("Figure 11", tables...)
	}
}

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		t := s.Ablation()
		printTables("Ablations", t)
	}
}

// BenchmarkUITSweep regenerates the §5.6 UIT size sensitivity numbers.
func BenchmarkUITSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		t := s.UITSweep()
		printTables("UIT sweep", t)
	}
}

// BenchmarkWIBvsLTP regenerates the related-work baseline comparison.
func BenchmarkWIBvsLTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		printTables("WIB vs LTP", s.WIBvsLTP()...)
	}
}

// BenchmarkDRAMModelStudy regenerates the memory-model sensitivity check.
func BenchmarkDRAMModelStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		printTables("DRAM model study", s.DRAMModelStudy())
	}
}

// --- Simulator micro-benchmarks ---

// BenchmarkPipelineKIPS measures baseline simulation speed in committed
// instructions per benchmark op (use ns/op to derive kilo-insts/sec).
func BenchmarkPipelineKIPS(b *testing.B) {
	wl, _ := workload.ByName("indirectwork")
	program := wl.Build(0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pipeline.New(pipeline.DefaultConfig(), prog.NewEmulator(program), pipeline.NullParker{})
		p.Run(20_000, 0)
	}
	b.ReportMetric(20_000, "insts/op")
}

// BenchmarkPipelineLTPKIPS measures simulation speed with the LTP attached.
func BenchmarkPipelineLTPKIPS(b *testing.B) {
	wl, _ := workload.ByName("indirectwork")
	program := wl.Build(0.05)
	pcfg := pipeline.DefaultConfig()
	pcfg.IQSize = 32
	pcfg.IntRegs, pcfg.FPRegs = 96, 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := core.New(core.DefaultConfig(), pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
		p := pipeline.New(pcfg, prog.NewEmulator(program), unit)
		p.Run(20_000, 0)
	}
	b.ReportMetric(20_000, "insts/op")
}

// BenchmarkTAGE measures cycle-simulation speed with the TAGE
// predictor selected, against BenchmarkPipelineKIPS's gshare baseline
// — the predictor registry must stay off the hot path when idle and
// TAGE's tagged-table walk must not dominate the cycle loop.
func BenchmarkTAGE(b *testing.B) {
	wl, _ := workload.ByName("indirectwork")
	program := wl.Build(0.05)
	pcfg := pipeline.DefaultConfig()
	pcfg.BranchPred = "tage"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pipeline.New(pcfg, prog.NewEmulator(program), pipeline.NullParker{})
		p.Run(20_000, 0)
	}
	b.ReportMetric(20_000, "insts/op")
}

// BenchmarkContention measures cycle-simulation speed with a memhog
// co-runner attached — the shared-hierarchy replay adds per-cycle work
// (Tick plus the below-L1 walks), so this row tracks the contention
// subsystem's overhead on the trajectory.
func BenchmarkContention(b *testing.B) {
	spec := ltp.RunSpec{
		Scenario:  "ptrchase",
		Scale:     0.05,
		MaxInsts:  20_000,
		Corunners: []ltp.Corunner{{Scenario: "memhog"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ltp.RunContext(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20_000, "insts/op")
}

// BenchmarkModelBackendKIPS measures the interval-model backend's
// estimation speed on the same workload as BenchmarkPipelineKIPS, so
// the trajectory records the model-versus-cycle throughput ratio.
func BenchmarkModelBackendKIPS(b *testing.B) {
	spec := ltp.RunSpec{
		Workload: "indirectwork",
		Scale:    0.05,
		MaxInsts: 20_000,
		Backend:  ltp.BackendModel,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ltp.RunContext(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20_000, "insts/op")
}

// BenchmarkTriageSweep measures a full two-phase fidelity-triage
// campaign (2 scenarios × 2 configs × 2 seeds estimated, best cell
// re-measured) through the engine.
func BenchmarkTriageSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newTestEngine(b, ltp.EngineConfig{})
		seeds := ltp.SweepAxis{Name: "seed", Replicate: true}
		for s := int64(1); s <= 2; s++ {
			s := s
			seeds.Points = append(seeds.Points, ltp.SweepPoint{
				Name: fmt.Sprintf("seed%d", s), Patch: ltp.RunPatch{Seed: &s},
			})
		}
		iq := 32
		branchy, ptrchase := "branchy", "ptrchase"
		spec := ltp.SweepSpec{
			Base: ltp.RunSpec{Scale: 0.05, MaxInsts: 5_000},
			Axes: []ltp.SweepAxis{
				{Name: "scenario", Points: []ltp.SweepPoint{
					{Name: branchy, Patch: ltp.RunPatch{Scenario: &branchy}},
					{Name: ptrchase, Patch: ltp.RunPatch{Scenario: &ptrchase}},
				}},
				{Name: "config", Points: []ltp.SweepPoint{
					{Name: "IQ64", Patch: ltp.RunPatch{}},
					{Name: "IQ32", Patch: ltp.RunPatch{IQSize: &iq}},
				}},
				seeds,
			},
			Triage: &ltp.TriageSpec{TopK: 1},
		}
		job, err := e.Submit(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := job.Wait(); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkWarmFast measures the functional warm-up path (emulator
// stepping + cache/bpred/LTP touch hooks) per 50k warmed instructions.
func BenchmarkWarmFast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := ltp.MustRun(ltp.RunSpec{
			Workload: "indirectwork", Scale: 0.1,
			WarmInsts: 50_000, MaxInsts: 1_000, WarmMode: ltp.WarmFast,
			UseLTP: true,
		})
		_ = r
	}
	b.ReportMetric(50_000, "warminsts/op")
}

// BenchmarkWarmDetailed measures the reference full-pipeline warm-up on
// the same region, for the fast/detailed speedup ratio.
func BenchmarkWarmDetailed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := ltp.MustRun(ltp.RunSpec{
			Workload: "indirectwork", Scale: 0.1,
			WarmInsts: 50_000, MaxInsts: 1_000, WarmMode: ltp.WarmDetailed,
			UseLTP: true,
		})
		_ = r
	}
	b.ReportMetric(50_000, "warminsts/op")
}

// BenchmarkOracleBuild measures the limit-study classification pre-pass.
func BenchmarkOracleBuild(b *testing.B) {
	wl, _ := workload.ByName("indirectwork")
	program := wl.Build(0.05)
	hcfg := mem.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildOracle(program, 50_000, hcfg, 256)
	}
	b.ReportMetric(50_000, "insts/op")
}

// BenchmarkEmulator measures raw functional emulation speed.
func BenchmarkEmulator(b *testing.B) {
	wl, _ := workload.ByName("gather")
	program := wl.Build(0.05)
	em := prog.NewEmulator(program)
	var u isa.Uop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Next(&u)
	}
}

// BenchmarkMatrix runs the scenario-matrix campaign at bench budgets
// (every family x the default config triple x 2 seeds) and prints the
// mean ± CI table, folding the matrix into the bench smoke run.
func BenchmarkMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newTestEngine(b, ltp.EngineConfig{})
		res, _ := submitMatrix(b, e, ltp.MatrixSpec{
			Scale:       0.05,
			WarmInsts:   8_000,
			DetailInsts: 25_000,
			Seeds:       2,
		})
		e.Close()
		printTables("Scenario matrix", experiment.MatrixTable(res))
	}
}

// BenchmarkTraceReplay measures trace decode + pipeline replay speed
// against BenchmarkTable1Baseline's emulate-and-simulate path.
func BenchmarkTraceReplay(b *testing.B) {
	var buf bytes.Buffer
	spec := ltp.RunSpec{
		Workload: "indirect", Scale: 0.05,
		WarmInsts: 8_000, MaxInsts: 25_000,
		RecordTo: &buf,
	}
	if _, err := ltp.RunContext(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	spec.RecordTo = nil
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.ReplayFrom = bytes.NewReader(raw)
		r, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CPI, "CPI")
	}
}

// batchBenchSpecs builds the 64-lane model sweep used by the batched-
// evaluation benchmarks: a warm-heavy hashjoin stream fanned into
// IQ-size × ROB-size × parking lanes, the shape an interactive
// structure-sizing sweep submits. All lanes share one functional
// stream and budgets, so the model backend evaluates them in one pass.
func batchBenchSpecs() []sim.Spec {
	var specs []sim.Spec
	for _, iq := range []int{16, 24, 32, 40, 48, 56, 64, 80} {
		for _, rob := range []int{128, 160, 192, 224} {
			for _, useLTP := range []bool{false, true} {
				cfg := pipeline.DefaultConfig()
				cfg.IQSize = iq
				cfg.ROBSize = rob
				var lcfg *core.Config
				if useLTP {
					c := core.DefaultConfig()
					lcfg = &c
				}
				specs = append(specs, sim.Spec{
					Pipeline:  cfg,
					LTP:       lcfg,
					WarmInsts: 1_200_000,
					MaxInsts:  40_000,
				})
			}
		}
	}
	return specs
}

// batchBenchStream builds the shared hashjoin stream at bench scale.
func batchBenchStream(b *testing.B) prog.Stream {
	b.Helper()
	fam, err := workload.FamilyByName("hashjoin")
	if err != nil {
		b.Fatal(err)
	}
	return prog.NewEmulator(fam.Build(nil, 0.5, 1))
}

// BenchmarkModelSweepBatch measures the batched model path: one op is
// a whole 64-cell sweep through RunBatch — one warm pass, one measured
// emulation, 64 arena-backed timing lanes. Compare ns/op here against
// 64× BenchmarkModelSweepPerCell's to read the amortized speedup (the
// PR-10 acceptance floor is 5×).
func BenchmarkModelSweepBatch(b *testing.B) {
	backend, err := sim.Lookup("model")
	if err != nil {
		b.Fatal(err)
	}
	bb := backend.(sim.BatchBackend)
	specs := batchBenchSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := make([]sim.Spec, len(specs))
		copy(run, specs)
		run[0].Stream = batchBenchStream(b)
		for j, br := range bb.RunBatch(context.Background(), run) {
			if br.Err != nil {
				b.Fatalf("lane %d: %v", j, br.Err)
			}
		}
	}
	b.ReportMetric(float64(len(specs)), "cells/op")
	b.ReportMetric(float64(len(specs))*40_000, "insts/op")
}

// BenchmarkModelSweepPerCell is BenchmarkModelSweepBatch's denominator:
// the same 64 cells evaluated one Run at a time, each paying its own
// warm-up and emulation (WarmKey is empty, so the warm-group cache
// stays out of the measurement). One op is ONE cell, so the amortized
// batch speedup is (this ns/op × 64) / batch ns/op.
func BenchmarkModelSweepPerCell(b *testing.B) {
	backend, err := sim.Lookup("model")
	if err != nil {
		b.Fatal(err)
	}
	specs := batchBenchSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		spec.Stream = batchBenchStream(b)
		if _, err := backend.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(40_000, "insts/op")
}
