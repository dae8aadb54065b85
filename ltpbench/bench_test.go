package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current code")

// smallConfig is a tiny-budget run of one workload.
func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: defaultSeed, seconds: 0.3, trace: trace,
		tmpRoot: t.TempDir(), scale: 0.05, setupReps: 1}
}

func runOK(t *testing.T, cfg config) report {
	t.Helper()
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", cfg.workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// TestSmoke runs every workload untraced and traced at tiny budgets:
// every op verifies and every declared metric is reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rep := runOK(t, smallConfig(t, w, false))
			for _, d := range endToEndDefs {
				if v := rep.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			runOK(t, smallConfig(t, w, true))
		})
	}
}

// TestPerturbedDigestFails checks that a result disagreeing with the
// reference table counts as a failed op, once per op that ran it.
func TestPerturbedDigestFails(t *testing.T) {
	cfg := smallConfig(t, "cycle-ilp", false)
	cfg.seed = heldOutSeed // not the accuracy pass's seed, so only the timed ops see the perturbation
	w := newCycleILP(cfg)
	v := newVerifier(nil)
	if err := w.setup(context.Background(), v); err != nil {
		t.Fatal(err)
	}
	w.close()
	golden := v.references()
	const key = "cycle-ilp/compute"
	if golden[key] == "" {
		t.Fatalf("no reference for %s in %v", key, golden)
	}
	golden[key] = "0000000000000000"
	cfg.golden = map[int64]map[string]string{cfg.seed: golden}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every op runs compute; the one other check attempted, the
	// accuracy pass at the default seed, passes.
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted-1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every op failed", rep.Correct, rep.Attempted, rep.Failed)
	}
}

// TestMetricNames checks the declared metrics' names and units, and
// that BENCHMARK.json declares exactly the same ones.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", d.name, d.unit)
		}
		seen[d.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", endToEndDefs, bj.EndToEnd)
	same("per_layer", perLayerDefs, bj.PerLayer)
}

// TestLayerSplit checks the standing predictions of how the layers
// split between workloads.
func TestLayerSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three traced workloads")
	}
	traced := func(w string) map[string]metric {
		cfg := smallConfig(t, w, true)
		cfg.scale = 0.2
		return runOK(t, cfg).Metrics
	}
	mlp, ilp, serve := traced("cycle-mlp"), traced("cycle-ilp"), traced("serve")
	for _, m := range []string{"pipeline.commit_idle_frac", "mem.dram_load_frac", "core.park_per_kinst"} {
		if !(mlp[m].Value > ilp[m].Value) {
			t.Errorf("%s: cycle-mlp %.4g, cycle-ilp %.4g; want mlp higher", m, mlp[m].Value, ilp[m].Value)
		}
	}
	if m := "bpred.op_share"; !(ilp[m].Value > mlp[m].Value) {
		t.Errorf("%s: cycle-ilp %.4g, cycle-mlp %.4g; want ilp higher", m, ilp[m].Value, mlp[m].Value)
	}
	if m := "server.hit_share_of_p50"; !(serve[m].Value > 0.5) {
		t.Errorf("%s = %.4g on serve; want the HTTP overhead plus the engine hit to make up most of p50", m, serve[m].Value)
	}
}

// TestGolden checks the reference table against the current code for
// the default and held-out seeds at the benchmark's own budgets; with
// -update it rewrites golden.json instead.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("full-budget set-up of every workload")
	}
	table := map[string]map[string]string{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		refs := map[string]string{}
		for _, name := range workloadNames() {
			cfg := config{workload: name, seed: seed, tmpRoot: t.TempDir(), scale: 1}
			w := workloadCtors[name](cfg)
			v := newVerifier(goldenDigests()[seed])
			err := w.setup(context.Background(), v)
			w.close()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for k, d := range v.references() {
				refs[k] = d
			}
		}
		table[strconv.FormatInt(seed, 10)] = refs
	}
	if *update {
		b, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		refs, want := table[strconv.FormatInt(seed, 10)], goldenDigests()[seed]
		for k, d := range refs {
			if want[k] != d {
				t.Errorf("seed %d %s: digest %s, golden.json has %q", seed, k, d, want[k])
			}
		}
		if len(want) != len(refs) {
			t.Errorf("seed %d: golden.json has %d keys, set-up produced %d", seed, len(want), len(refs))
		}
	}
}
