package main

// values maps a metric name to its measured value.
type values map[string]float64

// metricDef is one row of the metric dictionary. README.md explains
// each name; BENCHMARK.json must list exactly these (the test
// TestBenchmarkJSONMatchesDictionary holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the first run's value by which a second run
	// of the same code may differ before -aa fails (end-to-end only).
	Bound float64
	// Floor is an absolute difference that always passes (setup_s).
	Floor float64
	// Exact metrics are counts made by the program: every trial of a
	// workload must report the same value or the run fails.
	Exact bool
	// Gated end-to-end metrics are defined and non-zero on every
	// workload, so BENCHMARK.json lists them under end_to_end with
	// their bound. The others (a tail percentile two workloads cannot
	// support, counts that are legitimately 0) are listed under
	// per_layer there and are still compared by -aa.
	Gated bool
}

// endToEnd is what a user of the system sees, in print order. The
// bounds come from three ten-seed spreads on the sizing host (README,
// Steadiness): the issue's 10% for timings assumed runs repeating
// within 3%, which that host no longer delivers.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03, Gated: true},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Exact: true},
	{Name: "failed_share", Unit: "share", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05, Gated: true},
}

// perLayer lists the single-layer metrics, module by module.
var perLayer = []metricDef{
	{Name: "serial.write_us", Unit: "us", Better: "lower"},
	{Name: "serial.read_us", Unit: "us", Better: "lower"},
	{Name: "serial.type_bytes_per_op", Unit: "B", Better: "lower", Exact: true},
	{Name: "serial.serializer_calls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "serial.inlined_writes_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "serial.cycle_tables_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "serial.cycle_lookups_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "serial.alloc_objects_per_op", Unit: "count", Better: "lower"},
	{Name: "serial.reused_objects_per_op", Unit: "count", Better: "higher"},
	{Name: "serial.reuse_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "serial.opt_speedup", Unit: "x", Better: "higher"},

	{Name: "wire.seal_us", Unit: "us", Better: "lower"},
	{Name: "wire.unseal_us", Unit: "us", Better: "lower"},
	{Name: "wire.pool_gets_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.pool_outstanding", Unit: "count", Better: "lower"},

	{Name: "transport.hop_us", Unit: "us", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.messages_per_op", Unit: "count", Better: "lower", Exact: true},

	{Name: "rmi.invoke_us", Unit: "us", Better: "lower"},
	{Name: "rmi.self_us", Unit: "us", Better: "lower"},
	{Name: "rmi.self_share", Unit: "share", Better: "lower"},
	{Name: "rmi.calls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rmi.retries_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rmi.timeouts_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rmi.pending_at_end", Unit: "count", Better: "lower"},

	{Name: "app.body_us", Unit: "us", Better: "lower"},
	{Name: "app.share", Unit: "share", Better: "higher"},

	{Name: "lang.parse_us", Unit: "us", Better: "lower"},
	{Name: "lang.check_us", Unit: "us", Better: "lower"},
	{Name: "ir.lower_us", Unit: "us", Better: "lower"},
	{Name: "ir.validate_us", Unit: "us", Better: "lower"},
	{Name: "heap.analyze_us", Unit: "us", Better: "lower"},
	{Name: "core.sites_us", Unit: "us", Better: "lower"},
	{Name: "lang.source_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "heap.functions", Unit: "count", Better: "lower", Exact: true},
	{Name: "heap.regions", Unit: "count", Better: "higher", Exact: true},
	{Name: "heap.waves", Unit: "count", Better: "lower", Exact: true},
	{Name: "heap.contexts", Unit: "count", Better: "lower", Exact: true},
	{Name: "heap.nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "heap.iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "heap.strong_kills", Unit: "count", Better: "higher", Exact: true},
	{Name: "heap.budget_fallbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.sites", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.cycle_elided", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.reuse_granted", Unit: "count", Better: "higher", Exact: true},

	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_share", Unit: "share", Better: "lower"},
	{Name: "runtime.goroutines_leaked", Unit: "count", Better: "lower"},

	{Name: "driver.callers", Unit: "count", Better: "higher"},
	{Name: "driver.procs", Unit: "count", Better: "higher"},
	{Name: "driver.steal_share", Unit: "share", Better: "lower"},
	{Name: "driver.trials_discarded", Unit: "count", Better: "lower"},
	{Name: "driver.host_speed", Unit: "1/s", Better: "higher"},
	{Name: "driver.op_p999_us", Unit: "us", Better: "lower"},
	{Name: "driver.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "driver.ladder_coverage", Unit: "share", Better: "higher"},
}

// gatedMetrics and layerMetrics split the dictionary the way
// BENCHMARK.json does: what --trace 0 prints and what --trace 1 prints.
func gatedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Gated {
			out = append(out, m)
		}
	}
	return out
}

func layerMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Gated {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

// allMetrics is the whole dictionary.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// betterOf maps every metric name to its direction.
func betterOf() map[string]string {
	out := map[string]string{}
	for _, m := range allMetrics() {
		out[m.Name] = m.Better
	}
	return out
}
