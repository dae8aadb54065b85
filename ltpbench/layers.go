package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ltp"
	"ltp/internal/bpred"
	"ltp/internal/cache"
	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/model"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sched"
	"ltp/internal/server"
	"ltp/internal/sim"
	"ltp/internal/store"
	"ltp/internal/trace"
)

// probeInput is what the layer probes run on: the workload's cycle-tier
// specs, the programs it generates, and the engine and service its ops
// go through (nil when its ops bypass them).
type probeInput struct {
	specs    []namedSpec
	programs []program
	engine   *ltp.Engine
	server   *serveWorkload
}

// layer accumulates one probe's measurement: value = num/den, over
// count of base (its count base).
type layer struct {
	num, den, count float64
	what            string // "ns per µop", ...
	base            string // "µops", ...
}

// layerSet collects the per-layer metrics by name.
type layerSet map[string]*layer

func (ls layerSet) add(name, what, base string, num, den float64) {
	ls.addN(name, what, base, num, den, den)
}

// addN is add for a metric whose count base is not its denominator.
func (ls layerSet) addN(name, what, base string, num, den, count float64) {
	l := ls[name]
	if l == nil {
		l = &layer{what: what, base: base}
		ls[name] = l
	}
	l.num += num
	l.den += den
	l.count += count
}

// engineObs samples the engine's pool occupancy while a traced window
// runs.
type engineObs struct {
	mu            sync.Mutex
	busy, samples float64
}

// sample starts sampling RunningRuns/Parallelism every millisecond when
// the workload's ops go through an engine; the returned func stops it
// and waits for the sampler to exit.
func (o *engineObs) sample(w workload) func() {
	if o == nil || w.probe().engine == nil {
		return func() {}
	}
	return o.watch(w.probe().engine)
}

func (o *engineObs) watch(e *ltp.Engine) func() {
	if o == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				o.mu.Lock()
				o.busy += float64(e.RunningRuns()) / float64(e.Parallelism())
				o.samples++
				o.mu.Unlock()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// layerMetrics runs every layer probe on the workload's inputs and
// returns the per-layer metrics with their count bases.
func layerMetrics(ctx context.Context, cfg config, w workload, tr *tracer, untraced, traced []sample, obs *engineObs) (map[string]metric, map[string]string, error) {
	in := w.probe()
	ls := layerSet{}
	root := tr.begin("layer probes", -1)
	defer tr.end(root)

	// Traced-half overhead against the untraced half.
	ls.addN("bench.trace_overhead_ratio", "traced ÷ untraced mean op time", "ops",
		meanLat(traced), meanLat(untraced), float64(len(traced)+len(untraced)))

	for _, p := range in.programs {
		var err error
		d := tr.timed("workload.generate "+p.name(), root, func() { _, err = p.build() })
		if err != nil {
			return nil, nil, err
		}
		ls.add("workload.generate_ms", "ms per generated program", "programs", ms(d), 1)
	}

	var results []ltp.RunResult
	for _, s := range in.specs {
		res, err := probeStreams(ctx, tr, root, s, ls)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.key, err)
		}
		results = append(results, res)
		if err := probeModel(ctx, tr, root, s, ls); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.key, err)
		}
		const hashes = 50
		named := s.named()
		d := tr.timed("engine.canonical+hash "+s.key, root, func() {
			for i := 0; i < hashes && err == nil; i++ {
				var c ltp.RunSpec
				if c, err = named.Canonical(); err == nil {
					_, err = c.Hash()
				}
			}
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.key, err)
		}
		ls.add("engine.canonical_hash_us", "µs per Canonical+Hash", "calls", us(d), hashes)
	}
	if err := probeService(ctx, tr, root, in, traced, obs, ls); err != nil {
		return nil, nil, err
	}
	if err := probeStore(cfg, tr, root, results, ls); err != nil {
		return nil, nil, err
	}
	probeSched(ctx, tr, root, ls)

	// The HTTP overhead is the hit round trip less the engine's share.
	rtt, hit := ls["server.hit_rtt_us"], ls["engine.run_cached_hit_us"]
	ls.add("server.http_overhead_us", "server.hit_rtt_us − engine.run_cached_hit_us", "requests",
		(rtt.num/rtt.den-hit.num/hit.den)*rtt.den, rtt.den)

	out := map[string]metric{}
	notes := map[string]string{}
	for _, d := range perLayerDefs {
		l := ls[d.name]
		if l == nil {
			continue // checkMetrics reports it
		}
		v := 0.0
		if l.den != 0 {
			v = l.num / l.den
		}
		out[d.name] = metric{v, d.unit}
		notes[d.name] = fmt.Sprintf("%s, over %.0f %s", l.what, l.count, l.base)
	}
	return out, notes, checkMetrics(out, perLayerDefs)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func meanLat(ss []sample) float64 {
	var sum time.Duration
	for _, s := range ss {
		sum += s.lat
	}
	return sum.Seconds() / float64(len(ss))
}

// named returns the spec as a content-addressable request: the
// generated program replaced by the scenario or kernel that names it.
func (s namedSpec) named() ltp.RunSpec {
	spec := s.spec
	if spec.Program != nil {
		spec.Program = nil
		spec.Workload, spec.Scenario, spec.Seed = s.src.kernel, s.src.scenario, s.src.seed
		if s.src.kernel != "" {
			spec.Seed = 0
		}
	}
	return spec
}

// resolved is a spec's program and machine configuration, as the
// cycle backend would see them.
type resolved struct {
	prg  *prog.Program
	pcfg pipeline.Config
	lcfg *core.Config
}

func resolve(s namedSpec) (resolved, error) {
	r := resolved{prg: s.spec.Program, pcfg: pipeline.DefaultConfig()}
	if r.prg == nil {
		p := program{kernel: s.spec.Workload, scenario: s.spec.Scenario, seed: s.spec.Seed}
		var err error
		if r.prg, err = p.build(); err != nil {
			return r, err
		}
	}
	if s.spec.Pipeline != nil {
		r.pcfg = *s.spec.Pipeline
	}
	if s.spec.BranchPred != "" {
		r.pcfg.BranchPred = s.spec.BranchPred
	}
	if s.spec.UseLTP {
		c := core.DefaultConfig()
		if s.spec.LTP != nil {
			c = *s.spec.LTP
		}
		r.lcfg = &c
	}
	return r, nil
}

// probeStreams records the op's µop stream and replays it into the
// emulator, trace, branch-predictor, memory, pipeline and parking
// layers; it also times the op itself on the cycle and sampled tiers.
func probeStreams(ctx context.Context, tr *tracer, parent int, s namedSpec, ls layerSet) (ltp.RunResult, error) {
	r, err := resolve(s)
	if err != nil {
		return ltp.RunResult{}, err
	}
	warm, meas := s.spec.WarmInsts, s.spec.MaxInsts
	n := warm + meas

	// The op on the cycle tier, and its warm-up alone.
	var res ltp.RunResult
	opTime := tr.timed("sim.run "+s.key, parent, func() { res, err = ltp.RunContext(ctx, s.spec) })
	if err != nil {
		return res, err
	}
	cycle, err := sim.Lookup(ltp.BackendCycle)
	if err != nil {
		return res, err
	}
	warmSpec := sim.Spec{Stream: prog.NewEmulator(r.prg), Pipeline: r.pcfg, LTP: r.lcfg, WarmInsts: warm, MaxInsts: 1}
	warmTime := tr.timed("sim.warm "+s.key, parent, func() { _, err = cycle.Run(ctx, warmSpec) })
	if err != nil {
		return res, err
	}
	ls.addN("sim.warm_share", "warm-up ÷ whole op wall time", "ops", ns(warmTime), ns(opTime), 1)

	sampled, err := sim.Lookup(ltp.BackendSampled)
	if err != nil {
		return res, err
	}
	smpSpec := sim.Spec{Stream: prog.NewEmulator(r.prg), Pipeline: r.pcfg, LTP: r.lcfg, WarmInsts: warm, MaxInsts: meas, Intervals: sampledIntervals}
	d := tr.timed("sim.sampled "+s.key, parent, func() { _, err = sampled.Run(ctx, smpSpec) })
	if err != nil {
		return res, err
	}
	ls.add("sim.sampled_ms_per_cell", "ms per sampled-tier cell", "cells", ms(d), 1)

	// Emulator: Next and FastForward over the op's instruction count.
	em := prog.NewEmulator(r.prg)
	var u isa.Uop
	var got uint64
	d = tr.timed("prog.next "+s.key, parent, func() {
		for got = 0; got < n && em.Next(&u); got++ {
		}
	})
	ls.add("prog.ns_per_uop", "ns per Emulator.Next", "µops", ns(d), float64(got))
	em = prog.NewEmulator(r.prg)
	d = tr.timed("prog.fastforward "+s.key, parent, func() { got = em.FastForward(n, nil) })
	ls.add("prog.ff_ns_per_inst", "ns per FastForward instruction", "insts", ns(d), float64(got))

	// Record the stream (with fetch-ahead slack past the budget) and
	// replay it through the trace reader.
	var buf bytes.Buffer
	slack := uint64(4 * r.pcfg.ROBSize)
	if _, err := trace.Record(&buf, s.key, prog.NewEmulator(r.prg), n+slack); err != nil {
		return res, err
	}
	rec := buf.Bytes()
	uops := make([]isa.Uop, 0, n+slack)
	rd, err := trace.NewReader(bytes.NewReader(rec))
	if err != nil {
		return res, err
	}
	d = tr.timed("trace.next "+s.key, parent, func() {
		for rd.Next(&u) {
			uops = append(uops, u)
		}
	})
	if rd.Err() != nil {
		return res, rd.Err()
	}
	ls.add("trace.replay_ns_per_uop", "ns per Reader.Next", "µops", ns(d), float64(len(uops)))
	if uint64(len(uops)) < n {
		return res, fmt.Errorf("program ended after %d of %d µops", len(uops), n)
	}

	// Branch predictor over the op's branch stream (warm-up included:
	// fast warm-up trains the predictor with the same Lookup).
	bp, err := bpred.New(r.pcfg.BranchPred)
	if err != nil {
		return res, err
	}
	var branches float64
	d = tr.timed("bpred.lookup "+s.key, parent, func() {
		for i := range uops[:n] {
			if uops[i].IsBranch() {
				bp.Lookup(uops[i].PC, uops[i].Taken, uops[i].Target)
				branches++
			}
		}
	})
	ls.add("bpred.ns_per_branch", "ns per Predictor.Lookup", "branches", ns(d), branches)
	ls.addN("bpred.op_share", "Lookup time for the op's branches ÷ op wall time", "ops", ns(d), ns(opTime), 1)
	ls.add("bpred.mispredict_ratio", "mispredicts ÷ branches", "branches",
		float64(bp.Stats().Mispredicts), float64(bp.Stats().Branches))

	// Memory hierarchy: the warm region through Warm, then every
	// measured load through Load at one µop per cycle, replaying a
	// refused access a cycle later.
	h := mem.NewHierarchy(r.pcfg.Hier)
	for i := range uops[:warm] {
		if uops[i].IsMem() {
			h.Warm(uops[i].PC, uops[i].Addr, uops[i].Op == isa.Store)
		}
	}
	var loads float64
	now := uint64(0)
	d = tr.timed("mem.load "+s.key, parent, func() {
		for i := range uops[warm:n] {
			now++
			if uu := &uops[warm+uint64(i)]; uu.Op == isa.Load {
				for {
					if _, ok := h.Load(uu.PC, uu.Addr, now); ok {
						break
					}
					now++ // MSHRs full: replay a cycle later
				}
				loads++
			}
		}
	})
	ls.add("mem.load_ns", "ns per Hierarchy.Load", "loads", ns(d), loads)

	// Pipeline without and with the parking unit, on the same stream.
	null, err := replayPipeline(tr, parent, s.key, rec, r, warm, meas, nil)
	if err != nil {
		return res, err
	}
	lc := core.DefaultConfig()
	if r.lcfg != nil {
		lc = *r.lcfg
	}
	withLTP, err := replayPipeline(tr, parent, s.key, rec, r, warm, meas, &lc)
	if err != nil {
		return res, err
	}
	ls.add("pipeline.ns_per_cycle", "ns per Pipeline.Cycle (no parker)", "cycles", null.ns, null.cycles)
	ls.add("pipeline.ns_per_commit", "ns per committed instruction (no parker)", "insts", null.ns, null.committed)
	ls.add("pipeline.commit_idle_frac", "Cycle calls committing nothing ÷ all", "cycles", null.idle, null.cycles)
	ls.add("pipeline.sim_cpi", "simulated cycles per committed instruction", "insts", null.cycles, null.committed)
	ls.add("mem.dram_load_frac", "DRAM-served loads ÷ loads", "loads", null.dram, null.loads)
	ls.add("mem.l1_hit_ratio", "L1-served loads ÷ loads", "loads", null.l1, null.loads)
	ls.add("mem.prefetch_useful_ratio", "demand hits on prefetched L2 lines ÷ prefetches issued", "prefetches", null.prefUseful, null.prefIssued)
	ls.addN("core.ltp_cycle_overhead", "ns/cycle with core.New parker ÷ with NullParker", "cycles",
		withLTP.ns/withLTP.cycles, null.ns/null.cycles, withLTP.cycles+null.cycles)
	ls.add("core.park_per_kinst", "parked instructions per committed kinst", "kinst", withLTP.parked, withLTP.committed/1e3)
	return res, nil
}

// pipeStats is one measured pipeline replay.
type pipeStats struct {
	ns, cycles, idle, committed, parked     float64
	loads, l1, dram, prefIssued, prefUseful float64
}

// replayPipeline drives pipeline.Cycle over the recorded stream after a
// functional warm-up, as the cycle backend does, with the parking unit
// attached when lcfg is non-nil.
func replayPipeline(tr *tracer, parent int, key string, rec []byte, r resolved, warm, meas uint64, lcfg *core.Config) (pipeStats, error) {
	var st pipeStats
	rd, err := trace.NewReader(bytes.NewReader(rec))
	if err != nil {
		return st, err
	}
	var parker pipeline.Parker = pipeline.NullParker{}
	var unit *core.LTP
	if lcfg != nil {
		unit = core.New(*lcfg, r.pcfg.Hier.DRAMLatency, r.pcfg.Hier.TagEarlyLead)
		parker = unit
	}
	p := pipeline.New(r.pcfg, rd, parker)
	rd.FastForward(warm, func(u *isa.Uop) {
		p.Hier.WarmFetch(u.PC)
		var lvl mem.Level
		switch {
		case u.IsMem():
			lvl = p.Hier.Warm(u.PC, u.Addr, u.Op == isa.Store)
		case u.IsBranch():
			p.BP.Lookup(u.PC, u.Taken, u.Target)
		}
		if unit != nil {
			unit.WarmObserve(u, lvl)
		}
	})
	if unit != nil {
		unit.WarmFinish(p.Now())
	}
	p.BP.ResetStats()
	p.Hier.ResetStats()
	p.Hier.L2.ResetStats()
	start := p.Committed()
	limit := p.Now() + 1000*meas // a stalled replay must not spin forever
	name := "pipeline.cycle " + key
	if lcfg != nil {
		name = "core+pipeline.cycle " + key
	}
	d := tr.timed(name, parent, func() {
		for p.Committed()-start < meas && p.Now() < limit {
			c0 := p.Committed()
			p.Cycle()
			st.cycles++
			if p.Committed() == c0 {
				st.idle++
			}
		}
	})
	if got := p.Committed() - start; got < meas {
		return st, fmt.Errorf("pipeline replay committed %d of %d instructions", got, meas)
	}
	st.ns = ns(d)
	st.committed = float64(p.Committed() - start)
	st.loads = float64(p.Hier.Loads)
	st.l1 = float64(p.Hier.LoadLevel[mem.LvlL1])
	st.dram = float64(p.Hier.LoadLevel[mem.LvlDRAM])
	st.prefIssued = float64(p.Hier.PrefetchIssued)
	st.prefUseful = float64(p.Hier.L2.PrefHits)
	if unit != nil {
		st.parked = float64(unit.ParkedTotal)
	}
	return st, nil
}

// probeModel times the model tier cold, on a warm-cache hit, and as
// batched lanes over an IQ × LTP grid sharing the op's stream.
func probeModel(ctx context.Context, tr *tracer, parent int, s namedSpec, ls layerSet) error {
	r, err := resolve(s)
	if err != nil {
		return err
	}
	spec := func() sim.Spec {
		return sim.Spec{Stream: prog.NewEmulator(r.prg), Pipeline: r.pcfg, LTP: r.lcfg,
			WarmInsts: s.spec.WarmInsts, MaxInsts: s.spec.MaxInsts}
	}
	// A zero-value model backend has no warm cache: every run is cold.
	cold := model.Backend{}
	d := tr.timed("model.cold "+s.key, parent, func() { _, err = cold.Run(ctx, spec()) })
	if err != nil {
		return err
	}
	ls.add("model.cold_ms_per_cell", "ms per cold model cell", "cells", ms(d), 1)

	// The registered backend's warm cache: one run fills it, the
	// second hits.
	warm, err := sim.Lookup(ltp.BackendModel)
	if err != nil {
		return err
	}
	hs := spec()
	hs.WarmKey = "ltpbench-probe/" + s.key
	if _, err = warm.Run(ctx, hs); err != nil {
		return err
	}
	hs = spec()
	hs.WarmKey = "ltpbench-probe/" + s.key
	d = tr.timed("model.hit "+s.key, parent, func() { _, err = warm.Run(ctx, hs) })
	if err != nil {
		return err
	}
	ls.add("model.hit_ms_per_cell", "ms per warm-cache-hit model cell", "cells", ms(d), 1)

	var lanes []sim.Spec
	stream := prog.NewEmulator(r.prg)
	for _, iq := range campaignIQ {
		for _, on := range []bool{false, true} {
			l := spec()
			l.Stream = stream
			l.Pipeline.IQSize = iq
			l.LTP = nil
			if on {
				c := core.DefaultConfig()
				l.LTP = &c
			}
			lanes = append(lanes, l)
		}
	}
	var out []sim.BatchResult
	d = tr.timed("model.batch "+s.key, parent, func() { out = cold.RunBatch(ctx, lanes) })
	for _, o := range out {
		if o.Err != nil {
			return o.Err
		}
	}
	ls.add("model.batch_ms_per_lane", "ms per lane of a batched RunBatch", "lanes", ms(d), float64(len(lanes)))
	return nil
}

// probeService times the engine and the HTTP service: Submit → first
// cell, a cached run hit direct and over HTTP, the cache layer's Do hit,
// and the engine's cache hit ratio and pool occupancy.
func probeService(ctx context.Context, tr *tracer, parent int, in probeInput, traced []sample, obs *engineObs, ls layerSet) error {
	e := in.engine
	if e == nil {
		var err error
		if e, err = ltp.NewEngine(ltp.EngineConfig{Parallelism: runtime.NumCPU()}); err != nil {
			return err
		}
		defer e.Close()
	}

	// Submit → first cell: the campaign's own ops when they submit
	// sweeps, otherwise a model-tier sweep over the workload's specs.
	var firsts int
	for _, s := range traced {
		if s.firstCell > 0 {
			ls.add("engine.first_cell_ms", "ms from Submit to the first CellResult", "sweeps", ms(s.firstCell), 1)
			firsts++
		}
	}
	if firsts == 0 {
		var pts []ltp.SweepPoint
		for _, s := range in.specs {
			n := withBackend(s.named(), ltp.BackendModel)
			pts = append(pts, point(s.key, ltp.RunPatch{Workload: &n.Workload, Scenario: &n.Scenario, Seed: &n.Seed,
				Pipeline: n.Pipeline, BranchPred: &n.BranchPred, UseLTP: &n.UseLTP}))
		}
		stop := obs.watch(e)
		t0 := time.Now()
		id := tr.begin("engine.submit probe", parent)
		job, err := e.Submit(ctx, ltp.SweepSpec{Base: withBackend(in.specs[0].named(), ltp.BackendModel),
			Axes: []ltp.SweepAxis{{Name: "spec", Points: pts}}})
		if err != nil {
			tr.end(id)
			stop()
			return err
		}
		first := true
		for range job.Cells() {
			if first {
				ls.add("engine.first_cell_ms", "ms from Submit to the first CellResult", "sweeps", ms(time.Since(t0)), 1)
				first = false
			}
		}
		_, err = job.Wait()
		tr.end(id)
		stop()
		if err != nil {
			return err
		}
	}
	ls.add("sched.busy_frac", "RunningRuns ÷ Parallelism, sampled each ms", "samples", obs.busy, obs.samples)
	st := e.CacheStats()
	ls.add("cache.hit_ratio", "engine cache hits ÷ lookups", "lookups", float64(st.Hits), float64(st.Hits+st.Misses+st.Shared+st.StoreHits))

	// A cached run, direct and over HTTP: the serve workload's primed
	// read, else a model-tier run of the first spec primed here.
	spec := withBackend(in.specs[0].named(), ltp.BackendModel)
	body := mustJSON(requestFor(spec))
	if in.server != nil {
		spec, body = in.specs[0].spec, in.server.reads[0].body
	}
	if _, _, _, err := e.RunCached(ctx, spec); err != nil {
		return err
	}
	const hits = 200
	for i := 0; i < hits; i++ {
		var err error
		var out cache.Outcome
		d := tr.timed("engine.run_cached", parent, func() { _, out, _, err = e.RunCached(ctx, spec) })
		if err != nil || out != cache.Hit {
			return fmt.Errorf("cached run: outcome %v, %v", out, err)
		}
		ls.add("engine.run_cached_hit_us", "µs per Engine.RunCached hit", "hits", us(d), 1)
	}
	srv, err := server.New(server.Config{Engine: e})
	if err != nil {
		return err
	}
	hsrv := httptest.NewServer(srv)
	defer hsrv.Close()
	client := hsrv.Client()
	for i := 0; i < hits; i++ {
		var err error
		d := tr.timed("server.hit", parent, func() { err = postHit(ctx, client, hsrv.URL+"/v1/run", body) })
		if err != nil {
			return err
		}
		ls.add("server.hit_rtt_us", "µs per /v1/run cache-hit round trip", "requests", us(d), 1)
	}
	var lats []float64
	for _, s := range traced {
		lats = append(lats, s.lat.Seconds()*1e6)
	}
	rtt := ls["server.hit_rtt_us"]
	ls.addN("server.hit_share_of_p50", "cache-hit round trip ÷ the workload's op p50", "ops",
		rtt.num/rtt.den, percentile(lats, 50), float64(len(lats)))

	// The cache layer alone: Do hits on keys already stored.
	c := cache.New(len(in.specs))
	keys := make([]string, len(in.specs))
	for i, s := range in.specs {
		keys[i] = s.key
		if _, _, err := c.Do(ctx, s.key, func(context.Context) (any, error) { return i, nil }); err != nil {
			return err
		}
	}
	const doHits = 100_000
	d := tr.timed("cache.do", parent, func() {
		for i := 0; i < doHits; i++ {
			c.Do(ctx, keys[i%len(keys)], nil) // a hit never computes
		}
	})
	ls.add("cache.do_hit_ns", "ns per Cache.Do hit", "calls", ns(d), doHits)
	return nil
}

// requestFor converts a content-addressable spec into its /v1/run body.
func requestFor(s ltp.RunSpec) server.RunRequest {
	r := server.RunRequest{Workload: s.Workload, Scenario: s.Scenario, Seed: s.Seed, WarmInsts: s.WarmInsts,
		MaxInsts: s.MaxInsts, UseLTP: s.UseLTP, Backend: s.Backend, Intervals: s.Intervals, BranchPred: s.BranchPred}
	if p := s.Pipeline; p != nil {
		r.Config = &server.ConfigRequest{IQSize: p.IQSize, ROBSize: p.ROBSize, LQSize: p.LQSize, SQSize: p.SQSize,
			IntRegs: p.IntRegs, FPRegs: p.FPRegs}
	}
	return r
}

func postHit(ctx context.Context, client *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rr server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return err
	}
	if rr.Cache != "hit" {
		return fmt.Errorf("probe request: cache outcome %q, want hit", rr.Cache)
	}
	return nil
}

// probeStore appends the probe's results to a fresh store, then reads
// each back.
func probeStore(cfg config, tr *tracer, parent int, results []ltp.RunResult, ls layerSet) error {
	dir, err := os.MkdirTemp(cfg.tmpRoot, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "probe.store"))
	if err != nil {
		return err
	}
	defer st.Close()
	const records = 200
	payloads := make([][]byte, len(results))
	for i, r := range results {
		if payloads[i], err = json.Marshal(r); err != nil {
			return err
		}
	}
	for i := 0; i < records; i++ {
		d := tr.timed("store.put", parent, func() { err = st.Put("k"+strconv.Itoa(i), payloads[i%len(payloads)]) })
		if err != nil {
			return err
		}
		ls.add("store.put_us", "µs per Store.Put", "records", us(d), 1)
	}
	for i := 0; i < records; i++ {
		var ok bool
		d := tr.timed("store.get", parent, func() { _, ok = st.Get("k" + strconv.Itoa(i)) })
		if !ok {
			return fmt.Errorf("store probe: record %d missing", i)
		}
		ls.add("store.get_us", "µs per Store.Get", "records", us(d), 1)
	}
	return nil
}

// probeSched times SubmitCtx → start on an idle pool.
func probeSched(ctx context.Context, tr *tracer, parent int, ls layerSet) {
	pool := sched.NewPool(runtime.NumCPU())
	defer pool.Close()
	const tasks = 2000
	started := make(chan time.Time)
	id := tr.begin("sched.dispatch", parent)
	for i := 0; i < tasks; i++ {
		t0 := time.Now()
		pool.SubmitCtx(ctx, sched.TierCampaign, 1, func(context.Context) { started <- time.Now() })
		ls.add("sched.dispatch_us", "µs from Pool.SubmitCtx to task start", "tasks", us((<-started).Sub(t0)), 1)
	}
	tr.end(id)
}
