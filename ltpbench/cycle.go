package main

import (
	"context"
	"fmt"
	"math"

	"ltp"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	wl "ltp/internal/workload"
)

// namedSpec is one distinct op input: a key naming it in the reference
// table and the cycle-tier spec it runs.
type namedSpec struct {
	key  string
	spec ltp.RunSpec
	src  program // the program spec.Program was generated from, if set
}

// program names a µop source: a fixed kernel or a seeded scenario.
type program struct {
	kernel   string // workload registry name, or
	scenario string // scenario family name
	seed     int64
}

func (p program) name() string {
	if p.kernel != "" {
		return p.kernel
	}
	return p.scenario
}

// build generates the program.
func (p program) build() (*prog.Program, error) {
	if p.kernel != "" {
		k, err := wl.ByName(p.kernel)
		if err != nil {
			return nil, err
		}
		return k.Build(1), nil
	}
	fam, err := wl.FamilyByName(p.scenario)
	if err != nil {
		return nil, err
	}
	return fam.Build(nil, 1, p.seed), nil
}

// smallCore is the resource-constrained core LTP targets: a 32-entry
// IQ and 96 rename registers per class.
func smallCore() *pipeline.Config {
	c := pipeline.DefaultConfig()
	c.IQSize = 32
	c.IntRegs = 96
	c.FPRegs = 96
	return &c
}

// budget scales an instruction budget by cfg.scale.
func budget(cfg config, n uint64) uint64 {
	return uint64(math.Max(1000, math.Round(float64(n)*cfg.scale)))
}

// cycleWorkload runs ltp.RunContext back to back on the cycle tier,
// rotating through a fixed set of specs. The programs are generated at
// set-up and shared by every op that runs them.
type cycleWorkload struct {
	cfg      config
	programs []program
	// variants expands one generated program into its op specs.
	variants func(p program, prg *prog.Program) []namedSpec
	specs    []namedSpec
	refs     []ltp.RunResult // set-up results, parallel to specs
	v        *verifier
}

// newCycleMLP builds the memory-bound workload: hashjoin, ptrchase and
// phased on the small core, LTP off and on, after a fast warm-up long
// enough to fill the L3.
func newCycleMLP(cfg config) workload {
	w := &cycleWorkload{cfg: cfg}
	for _, sc := range []string{"hashjoin", "ptrchase", "phased"} {
		w.programs = append(w.programs, program{scenario: sc, seed: cfg.seed})
	}
	w.variants = func(p program, prg *prog.Program) []namedSpec {
		var out []namedSpec
		for _, on := range []bool{false, true} {
			out = append(out, namedSpec{
				key: fmt.Sprintf("cycle-mlp/%s/ltp=%v", p.name(), on), src: p,
				spec: ltp.RunSpec{Program: prg, Pipeline: smallCore(), UseLTP: on,
					WarmInsts: budget(cfg, 400_000), MaxInsts: budget(cfg, 100_000)},
			})
		}
		return out
	}
	return w
}

// newCycleILP builds the L1-resident, high-IPC control workload:
// compute, loopmix, and branchy under gshare and TAGE, on the same core
// with LTP attached.
func newCycleILP(cfg config) workload {
	w := &cycleWorkload{cfg: cfg}
	w.programs = []program{{kernel: "compute"}, {kernel: "loopmix"}, {scenario: "branchy", seed: cfg.seed}}
	w.variants = func(p program, prg *prog.Program) []namedSpec {
		preds := []string{""}
		if p.scenario == "branchy" {
			preds = []string{"gshare", "tage"}
		}
		var out []namedSpec
		for _, bp := range preds {
			key := "cycle-ilp/" + p.name()
			if bp != "" {
				key += "/" + bp
			}
			out = append(out, namedSpec{key: key, src: p, spec: ltp.RunSpec{Program: prg, Pipeline: smallCore(),
				UseLTP: true, BranchPred: bp, WarmInsts: budget(cfg, 100_000), MaxInsts: budget(cfg, 200_000)}})
		}
		return out
	}
	return w
}

func (w *cycleWorkload) setup(ctx context.Context, v *verifier) error {
	w.v = v
	for _, p := range w.programs {
		prg, err := p.build()
		if err != nil {
			return err
		}
		w.specs = append(w.specs, w.variants(p, prg)...)
	}
	for _, s := range w.specs {
		res, err := ltp.RunContext(ctx, s.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
		v.reference(s.key, digest(res))
		w.refs = append(w.refs, res)
	}
	return nil
}

func (w *cycleWorkload) clients() int { return 1 }
func (w *cycleWorkload) round() int   { return 1 }

// op runs every spec once, back to back. One op is the whole rotation,
// so its latency is one mode: single runs of different specs differ
// several-fold in cost, and a percentile over them would sit on
// whichever spec's cost the seed makes it land on.
func (w *cycleWorkload) op(ctx context.Context, tr *tracer, parent, _, _ int) opResult {
	out := opResult{ok: true}
	for _, s := range w.specs {
		id := tr.begin("sim.run "+s.key, parent)
		res, err := ltp.RunContext(ctx, s.spec)
		tr.end(id)
		if err != nil {
			w.v.say(s.key, "%v", err)
			out.ok = false
			continue
		}
		out.cells++
		out.insts += res.Committed
		out.ok = w.v.check(s.key, digest(res)) && out.ok
	}
	return out
}

func (w *cycleWorkload) finish(context.Context) (int, int) { return 0, 0 }

// accuracy runs every spec once on the model and sampled tiers.
func (w *cycleWorkload) accuracy(ctx context.Context) (float64, float64, error) {
	var cyc, mod, smp []float64
	for i, s := range w.specs {
		m, err := ltp.RunContext(ctx, withBackend(s.spec, ltp.BackendModel))
		if err != nil {
			return 0, 0, fmt.Errorf("%s on the model tier: %w", s.key, err)
		}
		sm, err := ltp.RunContext(ctx, withBackend(s.spec, ltp.BackendSampled))
		if err != nil {
			return 0, 0, fmt.Errorf("%s on the sampled tier: %w", s.key, err)
		}
		cyc = append(cyc, w.refs[i].CPI)
		mod = append(mod, m.CPI)
		smp = append(smp, sm.CPI)
	}
	return cpiErrPct(mod, cyc), cpiErrPct(smp, cyc), nil
}

func (w *cycleWorkload) probe() probeInput {
	return probeInput{specs: w.specs, programs: w.programs}
}

func (w *cycleWorkload) close() {}

// sampledIntervals is the sampled tier's interval count everywhere in
// the benchmark.
const sampledIntervals = 4

// withBackend returns s re-targeted at another execution tier.
func withBackend(s ltp.RunSpec, backend string) ltp.RunSpec {
	s.Backend = backend
	if backend == ltp.BackendSampled {
		s.Intervals = sampledIntervals
	}
	return s
}

// cpiErrPct is the mean of |est-ref|/ref over paired CPIs, in percent.
func cpiErrPct(est, ref []float64) float64 {
	var sum float64
	for i := range ref {
		sum += math.Abs(est[i]-ref[i]) / ref[i]
	}
	return 100 * sum / float64(len(ref))
}
