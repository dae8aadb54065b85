package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"ltp"
)

// campaignRotation is how many distinct campaign ops a run rotates
// through. Each op warms two model groups (one per scenario), so five
// ops push an op's entries out of the 8-entry process-wide model warm
// cache before it comes round again.
const campaignRotation = 5

var (
	campaignScenarios = []string{"ptrchase", "phased"}
	campaignIQ        = []int{16, 32, 64}
	campaignROB       = []int{128, 256}
	campaignTopK      = 4
)

// campaignCells is the number of results one op delivers: the model
// pre-pass over the whole grid, then the TopK cells on the cycle and
// the sampled tiers.
func campaignCells() int {
	return len(campaignScenarios)*len(campaignIQ)*len(campaignROB)*2 + 2*campaignTopK
}

// campaignWorkload submits figure-style campaigns to one engine: a
// triage sweep (model pre-pass, TopK re-run on the cycle tier) and the
// same TopK cells on the sampled tier. The engine's cache holds one op's
// cells, so every op — each with its own rotation seed — misses it.
type campaignWorkload struct {
	cfg    config
	engine *ltp.Engine
	v      *verifier
	// cyc, mod, smp are the set-up pass's TopK CPIs per tier.
	cyc, mod, smp []float64
	// detailSpecs are rotation op 0's TopK cells (cycle tier).
	detailSpecs []namedSpec
}

func newCampaign(cfg config) workload { return &campaignWorkload{cfg: cfg} }

func (w *campaignWorkload) setup(ctx context.Context, v *verifier) error {
	w.v = v
	e, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: runtime.NumCPU(), CacheEntries: campaignCells()})
	if err != nil {
		return err
	}
	w.engine = e
	for i := 0; i < campaignRotation; i++ {
		o, err := w.campaign(ctx, nil, -1, i)
		if err != nil {
			return fmt.Errorf("campaign op %d: %w", i, err)
		}
		v.reference(campaignKey(i), o.digest)
		w.cyc = append(w.cyc, o.cyc...)
		w.mod = append(w.mod, o.mod...)
		w.smp = append(w.smp, o.smp...)
		if i == 0 {
			w.detailSpecs = o.detail
		}
	}
	return nil
}

func campaignKey(i int) string { return fmt.Sprintf("campaign/op%d", i%campaignRotation) }

// campaignSeed is rotation op i's scenario seed.
func (w *campaignWorkload) campaignSeed(i int) int64 {
	return w.cfg.seed*100 + int64(i%campaignRotation)
}

// base is the campaign's cycle-tier base spec for rotation op i.
func (w *campaignWorkload) base(i int) ltp.RunSpec {
	return ltp.RunSpec{Seed: w.campaignSeed(i), WarmInsts: budget(w.cfg, 300_000), MaxInsts: budget(w.cfg, 60_000)}
}

func point(name string, p ltp.RunPatch) ltp.SweepPoint { return ltp.SweepPoint{Name: name, Patch: p} }

// grid is the triage sweep's axes: scenario × IQ × ROB × LTP.
func grid() []ltp.SweepAxis {
	var sc, iq, rob []ltp.SweepPoint
	for _, s := range campaignScenarios {
		sc = append(sc, point(s, ltp.RunPatch{Scenario: &s}))
	}
	for _, n := range campaignIQ {
		iq = append(iq, point(strconv.Itoa(n), ltp.RunPatch{IQSize: &n}))
	}
	for _, n := range campaignROB {
		rob = append(rob, point(strconv.Itoa(n), ltp.RunPatch{ROBSize: &n}))
	}
	off, on := false, true
	return []ltp.SweepAxis{
		{Name: "scenario", Points: sc},
		{Name: "iq", Points: iq},
		{Name: "rob", Points: rob},
		{Name: "ltp", Points: []ltp.SweepPoint{point("off", ltp.RunPatch{UseLTP: &off}), point("on", ltp.RunPatch{UseLTP: &on})}},
	}
}

// campaignOut is one campaign op's verified outcome.
type campaignOut struct {
	digest        string
	cells         int
	insts         uint64
	firstCell     time.Duration
	cyc, mod, smp []float64   // TopK CPIs per tier
	detail        []namedSpec // TopK cells as cycle-tier specs
}

// campaign runs rotation op i.
func (w *campaignWorkload) campaign(ctx context.Context, tr *tracer, parent, i int) (campaignOut, error) {
	var out campaignOut
	axes := grid()
	t0 := time.Now()
	id := tr.begin("engine.submit triage", parent)
	job, err := w.engine.Submit(ctx, ltp.SweepSpec{Base: w.base(i), Axes: axes, Triage: &ltp.TriageSpec{TopK: campaignTopK}})
	if err != nil {
		tr.end(id)
		return out, err
	}
	var cells []ltp.CellResult
	for c := range job.Cells() {
		if len(cells) == 0 {
			out.firstCell = time.Since(t0)
			tr.end(tr.begin("engine.first_cell", id))
		}
		cells = append(cells, c)
	}
	res, err := job.Wait()
	tr.end(id)
	if err != nil {
		return out, err
	}

	// The same TopK cells on the sampled tier, as one explicit axis.
	runs, err := ltp.SweepSpec{Base: w.base(i), Axes: axes}.Runs()
	if err != nil {
		return out, err
	}
	byCoords := map[string]ltp.SweepRun{}
	for _, r := range runs {
		byCoords[fmt.Sprint(r.Coords)] = r
	}
	model := map[string]float64{}
	for _, c := range res.Cells {
		model[fmt.Sprint(c.Coords)] = c.CPI.Mean
	}
	var pts []ltp.SweepPoint
	for _, d := range res.Triage.Detailed {
		k := fmt.Sprint(d.Coords)
		spec := byCoords[k].Spec
		pts = append(pts, point(k, ltp.RunPatch{Scenario: &spec.Scenario, IQSize: &spec.Pipeline.IQSize,
			ROBSize: &spec.Pipeline.ROBSize, UseLTP: &spec.UseLTP}))
		out.cyc = append(out.cyc, d.CPI.Mean)
		out.mod = append(out.mod, model[k])
		out.detail = append(out.detail, namedSpec{key: "campaign/" + k, spec: spec})
	}
	id = tr.begin("engine.submit sampled", parent)
	job, err = w.engine.Submit(ctx, ltp.SweepSpec{Base: withBackend(w.base(i), ltp.BackendSampled),
		Axes: []ltp.SweepAxis{{Name: "cell", Points: pts}}})
	if err != nil {
		tr.end(id)
		return out, err
	}
	var sampled []ltp.CellResult
	for c := range job.Cells() {
		sampled = append(sampled, c)
	}
	sres, err := job.Wait()
	tr.end(id)
	if err != nil {
		return out, err
	}
	for _, c := range sres.Cells {
		out.smp = append(out.smp, c.CPI.Mean)
	}

	// Cells stream in completion order; the digest uses sweep order.
	var ds []string
	for _, cs := range [][]ltp.CellResult{sortCells(cells), sortCells(sampled)} {
		for _, c := range cs {
			if c.Err != nil {
				return out, fmt.Errorf("cell %v: %w", c.Coords, c.Err)
			}
			ds = append(ds, digest(c.Result))
			out.insts += c.Result.Committed
		}
	}
	out.digest = combine(ds)
	out.cells = len(ds)
	if out.cells != campaignCells() {
		return out, fmt.Errorf("%d cells, want %d", out.cells, campaignCells())
	}
	return out, nil
}

// sortCells orders a job's streamed cells by phase, then sweep index.
func sortCells(cs []ltp.CellResult) []ltp.CellResult {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Phase != cs[b].Phase {
			return cs[a].Phase < cs[b].Phase
		}
		return cs[a].Index < cs[b].Index
	})
	return cs
}

func (w *campaignWorkload) clients() int { return 1 }
func (w *campaignWorkload) round() int   { return campaignRotation }

func (w *campaignWorkload) op(ctx context.Context, tr *tracer, parent, _, i int) opResult {
	before := w.engine.CacheStats()
	o, err := w.campaign(ctx, tr, parent, i)
	key := campaignKey(i)
	if err != nil {
		w.v.say(key, "%v", err)
		return opResult{}
	}
	ok := w.v.check(key, o.digest)
	if after := w.engine.CacheStats(); after.Hits != before.Hits || after.Shared != before.Shared {
		w.v.say(key, "op was served from the result cache (%d hits, %d shared)", after.Hits-before.Hits, after.Shared-before.Shared)
		ok = false
	}
	return opResult{cells: o.cells, insts: o.insts, ok: ok, firstCell: o.firstCell}
}

func (w *campaignWorkload) finish(context.Context) (int, int) { return 0, 0 }

func (w *campaignWorkload) accuracy(context.Context) (float64, float64, error) {
	return cpiErrPct(w.mod, w.cyc), cpiErrPct(w.smp, w.cyc), nil
}

func (w *campaignWorkload) probe() probeInput {
	return probeInput{specs: w.detailSpecs, engine: w.engine, programs: []program{
		{scenario: campaignScenarios[0], seed: w.campaignSeed(0)}, {scenario: campaignScenarios[1], seed: w.campaignSeed(0)}}}
}

func (w *campaignWorkload) close() {
	if w.engine != nil {
		w.engine.Close()
	}
}
