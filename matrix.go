package ltp

// The scenario-matrix campaign: the cross-product of {scenario family ×
// processor configuration × N seeds}, aggregated as mean ± 95%
// confidence intervals. It replaces the single-seed figure points with
// a statistically honest population. A matrix is one shape of sweep:
// NewMatrixSweep maps it onto a SweepSpec, Engine.Submit runs that
// through the engine's pool and content-addressed cache like any other
// campaign, and MatrixResultFromSweep folds the finished sweep back
// into the matrix shape.

import (
	"fmt"

	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/sim"
	"ltp/internal/stats"
	"ltp/internal/workload"
)

// MatrixConfig is one processor configuration column of the matrix.
type MatrixConfig struct {
	// Name labels the configuration in tables.
	Name string
	// Pipeline configures the core (nil = Table 1 baseline).
	Pipeline *pipeline.Config
	// UseLTP attaches the parking unit, configured by LTP (nil = the
	// paper's realistic design).
	UseLTP bool
	// LTP configures the parking unit when UseLTP is set.
	LTP *core.Config
}

// DefaultMatrixConfigs returns the standard three-column comparison:
// the Table 1 baseline, the shrunken core LTP targets, and that core
// with LTP attached.
func DefaultMatrixConfigs() []MatrixConfig {
	small := pipeline.DefaultConfig()
	small.IQSize, small.IntRegs, small.FPRegs = 32, 96, 96
	smallLTP := small
	return []MatrixConfig{
		{Name: "IQ64"},
		{Name: "IQ32", Pipeline: &small},
		{Name: "IQ32+LTP", Pipeline: &smallLTP, UseLTP: true},
	}
}

// MatrixSpec describes a scenario-matrix campaign.
type MatrixSpec struct {
	// Scenarios lists scenario family names (empty = every family).
	Scenarios []string
	// Knobs overrides family defaults for every cell (nil = defaults).
	Knobs *workload.Knobs
	// Configs lists the configurations (empty = DefaultMatrixConfigs).
	Configs []MatrixConfig

	// Seeds is the number of replicated runs per cell (default 3).
	Seeds int
	// BaseSeed offsets the replicate seeds (replicate k runs with seed
	// BaseSeed + k).
	BaseSeed int64

	// Scale shrinks workload working sets, as in RunSpec (default 1.0).
	Scale float64
	// WarmInsts is the per-run warm-up budget (default 0).
	WarmInsts uint64
	// DetailInsts is the per-run measured budget (default 1 M).
	DetailInsts uint64
	// WarmMode selects the warm-up path (default WarmFast).
	WarmMode WarmMode
	// Backend selects the execution backend for every cell (default
	// BackendCycle; BackendSampled measures checkpointed intervals at
	// a fraction of the wall-clock; BackendModel runs the whole
	// campaign as fast first-order estimates).
	Backend string
	// Intervals is the sampled backend's measured interval count K per
	// cell (0 = DefaultSampledIntervals; ignored — and canonically
	// zeroed — for other backends, as in RunSpec).
	Intervals int
}

// Canonical returns the campaign in normal form: scenario and config
// lists made explicit (empty = all families / DefaultMatrixConfigs,
// validated) and budget defaults filled in. Per-cell knob resolution
// happens at the RunSpec level, where the scenario family is known.
// Configs whose identity lives outside the spec (a prebuilt LTP.Oracle)
// have no canonical form: they cannot be content-addressed.
func (m MatrixSpec) Canonical() (MatrixSpec, error) {
	if len(m.Scenarios) == 0 {
		m.Scenarios = workload.FamilyNames()
	}
	for _, name := range m.Scenarios {
		if _, err := workload.FamilyByName(name); err != nil {
			return MatrixSpec{}, err
		}
	}
	if len(m.Configs) == 0 {
		m.Configs = DefaultMatrixConfigs()
	}
	configs := make([]MatrixConfig, len(m.Configs))
	copy(configs, m.Configs)
	for i := range configs {
		pcfg := pipeline.DefaultConfig()
		if configs[i].Pipeline != nil {
			pcfg = *configs[i].Pipeline
		}
		configs[i].Pipeline = &pcfg
		if configs[i].UseLTP {
			lcfg := core.DefaultConfig()
			if configs[i].LTP != nil {
				lcfg = *configs[i].LTP
			}
			if lcfg.Oracle != nil {
				return MatrixSpec{}, fmt.Errorf("ltp: matrix config %q with a prebuilt oracle has no canonical form", configs[i].Name)
			}
			configs[i].LTP = &lcfg
		} else {
			configs[i].LTP = nil
		}
	}
	m.Configs = configs
	if m.Seeds <= 0 {
		m.Seeds = 3
	}
	if m.Scale == 0 {
		m.Scale = 1.0
	}
	if m.DetailInsts == 0 {
		m.DetailInsts = 1_000_000
	}
	if m.WarmInsts == 0 {
		m.WarmMode = WarmFast
	}
	backend, err := sim.Lookup(m.Backend)
	if err != nil {
		return MatrixSpec{}, err
	}
	m.Backend = backend.Name()
	if backend.Fidelity() != sim.FidelityCycle {
		m.WarmMode = WarmFast // the analytical warm path is unique
	}
	if m.Backend == BackendSampled {
		m.Intervals = sampledIntervals(m.Intervals, m.DetailInsts)
	} else {
		m.Intervals = 0 // K is meaningless off the sampled backend
	}
	return m, nil
}

// matrixSpecHashVersion versions the canonical matrix serialization
// (see runSpecHashVersion; "mx2": the execution backend joined the
// canonical form; "mx3": the sampled backend's interval count K).
const matrixSpecHashVersion = "mx3"

// Hash returns a stable content address ("mx3:<hex>") of the
// canonical campaign; equal hashes mean identical cell populations.
func (m MatrixSpec) Hash() (string, error) {
	c, err := m.Canonical()
	if err != nil {
		return "", err
	}
	return hashJSON(matrixSpecHashVersion, c)
}

// MatrixCell aggregates one (scenario, config) cell's replicates.
type MatrixCell struct {
	// Scenario names the cell's scenario family.
	Scenario string
	// Config names the cell's configuration column.
	Config string

	// CPI summarizes the replicates' cycles per instruction.
	CPI stats.Summary
	// IPC summarizes instructions per cycle.
	IPC stats.Summary
	// MLP summarizes the average outstanding DRAM requests.
	MLP stats.Summary
	// AvgLoadLat summarizes the average load latency in cycles.
	AvgLoadLat stats.Summary
	// Parked is the time-average number of parked instructions (zero
	// summary when the configuration has no LTP attached).
	Parked stats.Summary
}

// MatrixResult is a finished campaign: one cell per scenario × config,
// ordered scenario-major in the spec's order.
type MatrixResult struct {
	// Scenarios echoes the campaign's scenario axis, in spec order.
	Scenarios []string
	// Configs echoes the configuration axis, in spec order.
	Configs []string
	// Seeds is the replicate count per cell.
	Seeds int
	// Cells holds the aggregates, scenario-major.
	Cells []MatrixCell
}

// Cell returns the named cell, or nil.
func (m *MatrixResult) Cell(scenario, config string) *MatrixCell {
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Scenario == scenario && c.Config == config {
			return c
		}
	}
	return nil
}

// MatrixResultFromSweep folds a finished NewMatrixSweep campaign (axes
// scenario, config, seed) back into the matrix shape: one cell per
// scenario × config, scenario-major in the spec's order. A result
// whose cells do not match that shape is an error.
func MatrixResultFromSweep(m MatrixSpec, sr *SweepResult) (*MatrixResult, error) {
	c, err := m.Canonical()
	if err != nil {
		return nil, err
	}
	out := &MatrixResult{Scenarios: c.Scenarios, Seeds: c.Seeds}
	for _, cfg := range c.Configs {
		out.Configs = append(out.Configs, cfg.Name)
	}
	if want := len(c.Scenarios) * len(c.Configs); len(sr.Cells) != want {
		return nil, fmt.Errorf("ltp: sweep result has %d cells; the matrix has %d", len(sr.Cells), want)
	}
	out.Cells = make([]MatrixCell, len(sr.Cells))
	for i, sc := range sr.Cells {
		scn, cfg := c.Scenarios[i/len(c.Configs)], out.Configs[i%len(c.Configs)]
		if len(sc.Coords) != 2 || sc.Coords[0] != scn || sc.Coords[1] != cfg {
			return nil, fmt.Errorf("ltp: sweep cell %d has coordinates %q; the matrix expects [%s %s]", i, sc.Coords, scn, cfg)
		}
		out.Cells[i] = MatrixCell{
			Scenario:   sc.Coords[0],
			Config:     sc.Coords[1],
			CPI:        sc.CPI,
			IPC:        sc.IPC,
			MLP:        sc.MLP,
			AvgLoadLat: sc.AvgLoadLat,
			Parked:     sc.Parked,
		}
	}
	return out, nil
}
