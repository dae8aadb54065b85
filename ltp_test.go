package ltp_test

import (
	"context"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
)

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := ltp.RunContext(context.Background(), ltp.RunSpec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestWorkloadsRegistry(t *testing.T) {
	if len(ltp.Workloads()) < 12 {
		t.Fatalf("registry too small: %d", len(ltp.Workloads()))
	}
	if _, err := ltp.WorkloadByName("indirect"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaselineSmoke(t *testing.T) {
	r, err := ltp.RunContext(context.Background(), ltp.RunSpec{
		Workload: "gather", Scale: 0.05,
		WarmInsts: 10_000, MaxInsts: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 30_000 || r.CPI <= 0 {
		t.Errorf("bad result: %v", r.Result)
	}
	if r.LTP != nil {
		t.Error("baseline run reported LTP stats")
	}
	if r.Energy.IQ <= 0 || r.Energy.RF <= 0 {
		t.Error("energy model not evaluated")
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := ltp.RunSpec{
		Workload: "indirectwork", Scale: 0.05,
		WarmInsts: 10_000, MaxInsts: 30_000, UseLTP: true,
	}
	a := ltp.MustRun(spec)
	b := ltp.MustRun(spec)
	if a.Cycles != b.Cycles || a.MLP != b.MLP {
		t.Errorf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// The headline reproduction check: on an MLP-sensitive kernel with the
// small core (IQ:32/RF:96), LTP must recover a large share of the big
// baseline's performance (paper Fig. 6/10).
func TestLTPRecoversSmallCorePerformance(t *testing.T) {
	small := pipeline.DefaultConfig()
	small.IQSize = 32
	small.IntRegs, small.FPRegs = 96, 96

	mk := func(useLTP bool, cfg pipeline.Config) ltp.RunResult {
		return ltp.MustRun(ltp.RunSpec{
			Workload: "indirectwork", Scale: 0.1,
			WarmInsts: 30_000, MaxInsts: 80_000,
			Pipeline: &cfg, UseLTP: useLTP,
		})
	}
	base := mk(false, pipeline.DefaultConfig())
	noLTP := mk(false, small)
	withLTP := mk(true, small)

	if noLTP.Cycles <= base.Cycles {
		t.Skip("small core unexpectedly not slower; workload scaling issue")
	}
	if withLTP.Cycles >= noLTP.Cycles {
		t.Errorf("LTP did not help the small core: %d vs %d cycles", withLTP.Cycles, noLTP.Cycles)
	}
	// LTP must close at least half of the gap to the big baseline.
	gap := float64(noLTP.Cycles - base.Cycles)
	closed := float64(noLTP.Cycles - withLTP.Cycles)
	if closed < 0.5*gap {
		t.Errorf("LTP closed only %.0f%% of the small-core gap", 100*closed/gap)
	}
}

func TestMonitorKeepsLTPOffOnCompute(t *testing.T) {
	r := ltp.MustRun(ltp.RunSpec{
		Workload: "compute", Scale: 0.05,
		WarmInsts: 5_000, MaxInsts: 20_000, UseLTP: true,
	})
	if r.LTP == nil {
		t.Fatal("no LTP stats")
	}
	if r.LTP.EnabledFrac > 0.02 {
		t.Errorf("LTP enabled %.0f%% on compute-bound code", r.LTP.EnabledFrac*100)
	}
	if r.LTP.ParkedTotal != 0 {
		t.Errorf("%d parked on compute-bound code", r.LTP.ParkedTotal)
	}
}

func TestOracleMode(t *testing.T) {
	lcfg := core.DefaultConfig()
	lcfg.Mode = core.ModeNRNU
	lcfg.Entries, lcfg.Ports = 0, 0
	r := ltp.MustRun(ltp.RunSpec{
		Workload: "gather", Scale: 0.05,
		WarmInsts: 10_000, MaxInsts: 30_000,
		UseLTP: true, LTP: &lcfg, Oracle: true,
	})
	if r.LTP == nil || r.LTP.ParkedTotal == 0 {
		t.Error("oracle mode parked nothing on a gather kernel")
	}
}

// TestWarmupEquivalence is the fast-warm acceptance gate: on two
// workloads, the measured-region CPI after the functional fast warm-up
// must agree with the detailed (full pipeline) warm-up within 1%, with
// and without the LTP attached. If this breaks, a warm hook has drifted
// from what the pipeline actually trains.
func TestWarmupEquivalence(t *testing.T) {
	for _, tc := range []struct {
		workload string
		useLTP   bool
	}{
		{"indirectwork", false},
		{"indirectwork", true},
		{"gather", false},
		{"gather", true},
	} {
		name := tc.workload
		if tc.useLTP {
			name += "+ltp"
		}
		t.Run(name, func(t *testing.T) {
			cfg := pipeline.DefaultConfig()
			cfg.IQSize = 32
			cfg.IntRegs, cfg.FPRegs = 96, 96
			run := func(wm ltp.WarmMode) ltp.RunResult {
				return ltp.MustRun(ltp.RunSpec{
					Workload: tc.workload, Scale: 0.1,
					WarmInsts: 40_000, MaxInsts: 80_000, WarmMode: wm,
					Pipeline: &cfg, UseLTP: tc.useLTP,
				})
			}
			fast := run(ltp.WarmFast)
			detailed := run(ltp.WarmDetailed)
			if detailed.CPI <= 0 {
				t.Fatalf("detailed warm produced CPI %v", detailed.CPI)
			}
			rel := fast.CPI/detailed.CPI - 1
			if rel < 0 {
				rel = -rel
			}
			if rel > 0.01 {
				t.Errorf("fast-warm CPI %.4f vs detailed-warm CPI %.4f: %.2f%% apart (want <1%%)",
					fast.CPI, detailed.CPI, rel*100)
			}
		})
	}
}

// TestWarmModeString pins the flag-facing names.
func TestWarmModeString(t *testing.T) {
	if ltp.WarmFast.String() != "fast" || ltp.WarmDetailed.String() != "detailed" {
		t.Error("warm mode names changed")
	}
	if _, err := ltp.ParseWarmMode("nope"); err == nil {
		t.Error("ParseWarmMode accepted garbage")
	}
	if m, err := ltp.ParseWarmMode("detailed"); err != nil || m != ltp.WarmDetailed {
		t.Error("ParseWarmMode(detailed) wrong")
	}
}

func TestCustomProgram(t *testing.T) {
	wl, _ := ltp.WorkloadByName("stream")
	r, err := ltp.RunContext(context.Background(), ltp.RunSpec{
		Program:   wl.Build(0.05),
		WarmInsts: 5_000, MaxInsts: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 20_000 {
		t.Errorf("committed %d", r.Committed)
	}
}

// TestRunRejectsInvalidConfig checks a structurally impossible core —
// one every backend's constructors would panic on, or the model tier
// would silently estimate — comes back from RunContext as an error on
// every tier, never as a panic or a result.
func TestRunRejectsInvalidConfig(t *testing.T) {
	dram := mem.DefaultDRAMConfig()
	dram.Banks = 3
	for _, c := range []struct {
		name string
		mut  func(*ltp.RunSpec)
	}{
		{"IQ 0", func(s *ltp.RunSpec) { s.Pipeline.IQSize = 0 }},
		{"L1D 3000 bytes", func(s *ltp.RunSpec) { s.Pipeline.Hier.L1DSize = 3000 }},
		{"3 DRAM banks", func(s *ltp.RunSpec) { s.Pipeline.Hier.DRAM = &dram }},
		{"12-entry UIT", func(s *ltp.RunSpec) { s.LTP.UITEntries = 12 }},
	} {
		for _, backend := range []string{ltp.BackendCycle, ltp.BackendModel, ltp.BackendSampled} {
			pcfg, lcfg := pipeline.DefaultConfig(), core.DefaultConfig()
			spec := ltp.RunSpec{
				Workload: "indirect", Scale: 0.05, MaxInsts: 2_000,
				Pipeline: &pcfg, UseLTP: true, LTP: &lcfg, Backend: backend,
			}
			c.mut(&spec)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s panicked: %v", c.name, backend, p)
					}
				}()
				if _, err := ltp.RunContext(context.Background(), spec); err == nil {
					t.Errorf("%s on %s: no error", c.name, backend)
				}
			}()
		}
	}
}

// TestHashRejectsBadPrefetchTable checks a prefetcher training table
// that is not a power of two has no content address: Canonical errors
// instead of panicking in the prefetcher constructor.
func TestHashRejectsBadPrefetchTable(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Hier.PrefetchTable = 3
	if _, err := (ltp.RunSpec{Workload: "indirect", Pipeline: &cfg}).Hash(); err == nil {
		t.Fatal("a 3-entry stride table hashed")
	}
}
