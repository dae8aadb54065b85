package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric. Every untraced run reports
// every end-to-end metric and every traced run every per-layer metric,
// whatever the workload; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_kips", "kinst/s", "higher"},
	{"cells_per_s", "cells/s", "higher"},
	{"cpu_ms_per_cell", "ms/cell", "lower"},
	{"req_per_s", "req/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"model_cpi_err_pct", "%", "lower"},
	{"sampled_cpi_err_pct", "%", "lower"},
}

var perLayerDefs = []metricDef{
	{"prog.ns_per_uop", "ns/uop", "lower"},
	{"prog.ff_ns_per_inst", "ns/inst", "lower"},
	{"trace.replay_ns_per_uop", "ns/uop", "lower"},
	{"bpred.ns_per_branch", "ns/branch", "lower"},
	{"bpred.op_share", "ratio", "lower"},
	{"bpred.mispredict_ratio", "ratio", "lower"},
	{"mem.load_ns", "ns/load", "lower"},
	{"mem.dram_load_frac", "ratio", "lower"},
	{"mem.l1_hit_ratio", "ratio", "higher"},
	{"mem.prefetch_useful_ratio", "ratio", "higher"},
	{"pipeline.ns_per_cycle", "ns/cycle", "lower"},
	{"pipeline.ns_per_commit", "ns/inst", "lower"},
	{"pipeline.commit_idle_frac", "ratio", "lower"},
	{"pipeline.sim_cpi", "cycles/inst", "lower"},
	{"core.ltp_cycle_overhead", "ratio", "lower"},
	{"core.park_per_kinst", "1/kinst", "higher"},
	{"sim.warm_share", "ratio", "lower"},
	{"sim.sampled_ms_per_cell", "ms/cell", "lower"},
	{"model.cold_ms_per_cell", "ms/cell", "lower"},
	{"model.hit_ms_per_cell", "ms/cell", "lower"},
	{"model.batch_ms_per_lane", "ms/lane", "lower"},
	{"engine.canonical_hash_us", "us/spec", "lower"},
	{"engine.first_cell_ms", "ms/sweep", "lower"},
	{"engine.run_cached_hit_us", "us/hit", "lower"},
	{"sched.dispatch_us", "us/task", "lower"},
	{"sched.busy_frac", "ratio", "higher"},
	{"cache.do_hit_ns", "ns/call", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"server.hit_rtt_us", "us/req", "lower"},
	{"server.http_overhead_us", "us/req", "lower"},
	{"server.hit_share_of_p50", "ratio", "higher"},
	{"store.put_us", "us/record", "lower"},
	{"store.get_us", "us/record", "lower"},
	{"workload.generate_ms", "ms/program", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// checkMetrics reports a run whose metrics are not exactly defs, with
// the declared units.
func checkMetrics(got map[string]metric, defs []metricDef) error {
	var missing, extra []string
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			missing = append(missing, d.name)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing or mis-unitized %v, undeclared %v", missing, extra)
	}
	return nil
}
