package main

import (
	"fmt"
	"sort"
)

// endToEnd names every metric an untraced run reports, with its unit.
// Host metrics are medians over the run's timed runs; simulated ones
// (cycles, rpMc, ok_frac) are exact and identical across runs.
var endToEnd = map[string]string{
	"sim_req_per_s":            "1/s",
	"sim_cycles_per_s":         "cycles/s",
	"setup_s":                  "s",
	"host_allocs_per_req":      "count",
	"host_alloc_bytes_per_req": "B",
	"goodput_rpmc":             "rpMc",
	"p50_cycles":               "cycles",
	"p99_cycles":               "cycles",
	"p999_cycles":              "cycles",
	"ok_frac":                  "ratio",
}

// perLayer names every metric a traced run reports, with its unit.
var perLayer = func() map[string]string {
	m := map[string]string{
		"sim.skipped_cycle_frac":       "ratio",
		"noc.flits_per_req":            "count",
		"noc.express_hit_frac":         "ratio",
		"noc.stall_cycles_per_req":     "cycles",
		"noc.span_ni_queue_p99_cy":     "cycles",
		"noc.span_vc_wait_p99_cy":      "cycles",
		"noc.span_switch_wait_p99_cy":  "cycles",
		"noc.span_hops_mean":           "count",
		"noc.spans_sampled":            "count",
		"monitor.cap_checks_per_req":   "count",
		"monitor.denied_per_req":       "count",
		"accel.shed_per_req":           "count",
		"netstack.tx_segments_per_req": "count",
		"netstack.retransmit_frac":     "ratio",
		"netsim.frames_per_req":        "count",
		"netsim.drop_frac":             "ratio",
		"cluster.relayed_per_req":      "count",
		"cluster.dropped_to_dead":      "count",
		"cluster.epoch_host_us_p50":    "us",
		"cluster.epoch_host_us_p99":    "us",
		"core.syscalls_per_req":        "count",
		"core.migrations":              "count",
		"core.failovers":               "count",
		"core.snapshot_bytes":          "B",
		"core.snapshot_encode_us":      "us",
		"core.snapshot_decode_us":      "us",
		"load.completed":               "count",
		"load.failed_frac":             "ratio",
		"bench.trace_overhead_frac":    "ratio",
	}
	for _, l := range layers {
		m[l+".host_ns_per_req"] = "ns"
		m[l+".alloc_bytes_per_req"] = "B"
	}
	return m
}()

// withUnits attaches units to measured values, requiring exactly the
// metrics units names.
func withUnits(vals map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(vals))
	var missing []string
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 || len(vals) != len(units) {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics %v missing, %d measured for %d named", missing, len(vals), len(units))
	}
	return out, nil
}
