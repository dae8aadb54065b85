package ltp

import (
	"context"

	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/sim"
)

// modelBatchKeyVersion prefixes model batch-group keys.
const modelBatchKeyVersion = "mb1"

// modelBatchKey names the batch group a canonical model-backend cell
// belongs to: cells with equal keys share one functional µop stream
// and equal warm/measured budgets, which is exactly the sim.BatchBackend
// admission contract. Timing configuration (pipeline sizes, LTP mode,
// predictors, co-runners, MaxCycles) deliberately stays out — those
// vary across the lanes of one group.
func modelBatchKey(c RunSpec) (string, bool) {
	if c.Backend != BackendModel {
		return "", false
	}
	key, err := hashJSON(modelBatchKeyVersion, struct {
		Workload  string
		Scenario  string
		Knobs     interface{}
		Seed      int64
		Scale     float64
		WarmInsts uint64
		MaxInsts  uint64
	}{c.Workload, c.Scenario, c.Knobs, c.Seed, c.Scale, c.WarmInsts, c.MaxInsts})
	if err != nil {
		return "", false
	}
	return key, true
}

// runModelBatch evaluates a group of canonical model-backend specs
// (equal modelBatchKey) in one shared pass through the model backend's
// RunBatch: the functional stream is built lazily once, driven once,
// and fanned into per-config timing lanes. Each lane resolves exactly
// as a single run does (resolve), then shares the first lane's stream.
// Results and errors are positional; each cell's result is
// bit-identical to what RunContext would have produced for it alone.
func runModelBatch(ctx context.Context, specs []RunSpec, env runEnv) ([]RunResult, []error) {
	results := make([]RunResult, len(specs))
	errs := make([]error, len(specs))
	if len(specs) == 0 {
		return results, errs
	}
	backend, err := sim.Lookup(BackendModel)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	bb, ok := backend.(sim.BatchBackend)
	if !ok {
		// Registry holds a non-batching model backend (tests can do
		// this); fall back to sequential single-cell runs.
		for i, s := range specs {
			results[i], errs[i] = run(ctx, s, env)
		}
		return results, errs
	}

	// Lanes usually share a co-runner set; capture it once per batch.
	env.corMemo = make(map[string][]mem.CorunnerConfig)
	simSpecs := make([]sim.Spec, 0, len(specs))
	lanes := make([]int, 0, len(specs)) // simSpecs index -> specs index
	pcfgs := make([]pipeline.Config, len(specs))
	lcfgs := make([]*core.Config, len(specs))
	for i, s := range specs {
		ss, pcfg, lcfg, err := resolve(s, env)
		if err != nil {
			errs[i] = err
			continue
		}
		if len(simSpecs) > 0 {
			ss.Stream = simSpecs[0].Stream
		}
		pcfgs[i], lcfgs[i] = pcfg, lcfg
		simSpecs = append(simSpecs, ss)
		lanes = append(lanes, i)
	}
	if len(simSpecs) == 0 {
		return results, errs
	}

	for j, br := range bb.RunBatch(ctx, simSpecs) {
		i := lanes[j]
		if br.Err != nil {
			errs[i] = br.Err
			continue
		}
		results[i] = finishResult(br.Stats, pcfgs[i], lcfgs[i])
	}
	return results, errs
}
