package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark workload. A fresh value is built for every
// set-up repetition; only the last one is measured.
type workload interface {
	// setup does the readiness work — construction, program
	// generation, and one untimed pass over every distinct op — and
	// records each op's reference digest in v.
	setup(ctx context.Context, v *verifier) error
	// clients is the number of closed-loop callers; round is how many
	// ops each caller issues per identical round.
	clients() int
	round() int
	// op runs caller c's i-th op and verifies its results.
	op(ctx context.Context, tr *tracer, parent, c, i int) opResult
	// finish verifies what only the end of the window can check; it
	// returns the number of extra checks made and failed.
	finish(ctx context.Context) (attempted, failed int)
	// accuracy returns the model and sampled tiers' mean |ΔCPI| in
	// percent against the cycle tier over the workload's verified
	// cycle results.
	accuracy(ctx context.Context) (model, sampled float64, err error)
	// probe describes the inputs the traced run's layer probes use.
	probe() probeInput
	close()
}

// opResult is one timed op's outcome.
type opResult struct {
	cells int    // simulation results delivered
	insts uint64 // measured-region instructions simulated fresh
	ok    bool   // every result matched its reference digest
	// firstCell is Submit → first streamed cell (campaign ops only).
	firstCell time.Duration
}

// sample is one timed op as the measuring loop saw it.
type sample struct {
	opResult
	lat time.Duration
	cpu time.Duration // process CPU time during the op (single caller only)
}

var workloadCtors = map[string]func(config) workload{
	"cycle-mlp": newCycleMLP,
	"cycle-ilp": newCycleILP,
	"campaign":  newCampaign,
	"serve":     newServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadCtors))
	for n := range workloadCtors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark run and returns its report.
func run(ctx context.Context, cfg config) (report, error) {
	ctor, ok := workloadCtors[cfg.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return report{}, err
	}
	// The accuracy figures come from a separate instance at the default
	// seed, whose cycle results the reference table pins: they repeat
	// exactly whatever --seed is.
	modelErr, sampledErr, accFailed, err := accuracy(ctx, ctor, cfg)
	if err != nil {
		return report{}, fmt.Errorf("accuracy pass: %w", err)
	}

	v := newVerifier(cfg.golden[cfg.seed])
	var w workload
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		w = ctor(cfg)
		if err := w.setup(ctx, v); err != nil {
			w.close()
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	tr := &tracer{start: time.Now()}
	secs := cfg.seconds
	cursor := make([]int, w.clients())
	var untraced []sample
	var obs *engineObs
	if cfg.trace {
		// The first half runs untraced so the traced half's overhead
		// can be reported against it.
		untraced, _ = measure(ctx, w, secs/2, tr, nil, cursor)
		secs /= 2
		tr.on = true
		obs = &engineObs{}
	}
	samples, window := measure(ctx, w, secs, tr, obs, cursor)
	extraAttempted, extraFailed := w.finish(ctx)

	// The accuracy pass's check against the reference table is one more
	// op attempted.
	rep := report{Attempted: len(samples) + len(untraced) + extraAttempted + 1, Failed: extraFailed + accFailed}
	for _, s := range append(untraced, samples...) {
		if !s.ok {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0

	var notes map[string]string
	if cfg.trace {
		rep.Metrics, notes, err = layerMetrics(ctx, cfg, w, tr, untraced, samples, obs)
		if err != nil {
			return report{}, fmt.Errorf("layer probes: %w", err)
		}
		if err := tr.write(cfg.tmpRoot, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
			return report{}, err
		}
	} else {
		rep.Metrics = endToEnd(w, samples, window)
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["model_cpi_err_pct"] = metric{modelErr, "%"}
		rep.Metrics["sampled_cpi_err_pct"] = metric{sampledErr, "%"}
		rep.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
		notes = map[string]string{
			"setup_s":   fmt.Sprintf("median of %d set-ups %v", len(setups), fmtSecs(setups)),
			"op_p50_ms": fmt.Sprintf("over %d ops", len(samples)),
			"op_p90_ms": fmt.Sprintf("over %d ops", len(samples)),
		}
		if err := checkMetrics(rep.Metrics, endToEndDefs); err != nil {
			return report{}, err
		}
	}
	fmt.Printf("workload=%s seed=%d trace=%v attempted=%d failed=%d\n", cfg.workload, cfg.seed, cfg.trace, rep.Attempted, rep.Failed)
	printTable(rep.Metrics, notes)
	return rep, nil
}

// accuracy sets up a fresh instance of the workload at the default seed
// and returns its model and sampled tiers' CPI error against its cycle
// results, and 1 if those results disagree with the reference table.
func accuracy(ctx context.Context, ctor func(config) workload, cfg config) (model, sampled float64, failed int, err error) {
	cfg.seed = defaultSeed
	w := ctor(cfg)
	defer w.close()
	v := newVerifier(cfg.golden[defaultSeed])
	if err := w.setup(ctx, v); err != nil {
		return 0, 0, 0, err
	}
	if v.failed() {
		failed = 1
	}
	model, sampled, err = w.accuracy(ctx)
	return model, sampled, failed, err
}

// window is the wall and CPU time of a whole measurement.
type window struct {
	wall, cpu time.Duration
}

// measure runs whole rounds of ops until secs have elapsed and returns
// every op's sample. cursor holds each caller's next op index and is
// advanced, so a second window continues where the first stopped. A single caller runs runtime.GC between ops,
// outside its timers; concurrent callers do not, since a collection
// would stall the other caller's timed op.
func measure(ctx context.Context, w workload, secs float64, tr *tracer, obs *engineObs, cursor []int) ([]sample, window) {
	n := w.clients()
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	per := make([][]sample, n)
	stop := obs.sample(w)
	cpu0 := processCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := cursor[c]; ; i++ {
				if i%w.round() == 0 && i > cursor[c] && time.Now().After(deadline) {
					cursor[c] = i
					return
				}
				if n == 1 {
					runtime.GC()
				}
				c0 := processCPU()
				id := tr.begin("op", -1)
				s0 := time.Now()
				res := w.op(ctx, tr, id, c, i)
				s := sample{opResult: res, lat: time.Since(s0)}
				tr.end(id)
				if n == 1 {
					s.cpu = processCPU() - c0
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	win := window{wall: time.Since(t0), cpu: processCPU() - cpu0}
	stop()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, win
}

// endToEnd derives the untraced run's metrics. A single caller's rates
// divide by the summed op latencies (the collections between ops are
// excluded); concurrent callers' rates divide by the window.
func endToEnd(w workload, samples []sample, win window) map[string]metric {
	var cells int
	var insts uint64
	var lat, cpu time.Duration
	lats := make([]float64, len(samples))
	for i, s := range samples {
		cells += s.cells
		insts += s.insts
		lat += s.lat
		cpu += s.cpu
		lats[i] = s.lat.Seconds() * 1e3
	}
	span := lat.Seconds()
	if w.clients() > 1 {
		span, cpu = win.wall.Seconds(), win.cpu
	}
	return map[string]metric{
		"sim_kips":        {float64(insts) / 1e3 / span, "kinst/s"},
		"cells_per_s":     {float64(cells) / span, "cells/s"},
		"cpu_ms_per_cell": {cpu.Seconds() * 1e3 / float64(cells), "ms/cell"},
		"req_per_s":       {float64(len(samples)) / span, "req/s"},
		"op_p50_ms":       {percentile(lats, 50), "ms"},
		"op_p90_ms":       {percentile(lats, 90), "ms"},
	}
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
