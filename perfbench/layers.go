package main

// endToEnd is the end-to-end metric set, reported by every workload in
// an untraced run. BENCHMARK.json lists the same names in this order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"sim_mips", "MIPS"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// perLayer is the per-layer metric set, reported by every workload in
// a traced run; a metric a workload has no layer call for reads 0 with
// no samples. BENCHMARK.json lists the same names in this order.
var perLayer = []struct{ name, unit string }{
	{"cpu.ns_per_inst", "ns"},
	{"cpu.ns_per_inst.icache_dm", "ns"},
	{"cpu.ns_per_inst.icache_assoc", "ns"},
	{"cpu.assoc_icache_inst_share", "ratio"},
	{"cpu.instructions", "count"},
	{"cache.icache_miss_ratio", "ratio"},
	{"cache.dcache_miss_ratio", "ratio"},
	{"core.run_ms.p50", "ms"},
	{"core.remote_ns_per_inst", "ns"},
	{"leon.start_ms.p50", "ms"},
	{"core.reconfigure_partial_ms.p50", "ms"},
	{"core.reconfigure_full_ms.p50", "ms"},
	{"core.full_swap_share", "ratio"},
	{"reconfig.hit_ratio", "ratio"},
	{"reconfig.synth_runs", "count"},
	{"client.load_ms.p50", "ms"},
	{"client.load_ms.p90", "ms"},
	{"client.wait_ms.p50", "ms"},
	{"client.read_ms.p50", "ms"},
	{"client.rtt_ms.p50", "ms"},
	{"client.retries_per_1k_requests", "count"},
	{"client.timeouts", "count"},
	{"client.wait_hold_share", "ratio"},
	{"server.datagrams_per_session", "count"},
	{"server.bytes_per_session", "bytes"},
	{"server.handled_ms.p50", "ms"},
	{"server.queue_depth.max", "count"},
	{"server.drops", "count"},
	{"server.waits_parked_share", "ratio"},
	{"fpx.commands_per_session", "count"},
	{"fpx.chunks_per_session", "count"},
	{"fpx.dup_request_share", "ratio"},
	{"lcc.compile_ms", "ms"},
	{"link.build_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"budget.max_residual_us", "us"},
	{"budget.self_share.harness", "ratio"},
	{"budget.self_share.core", "ratio"},
	{"budget.self_share.client", "ratio"},
}

// inOrder returns ms in the order of set, filling a metric the
// workload did not report with 0 and no samples.
func inOrder(set []struct{ name, unit string }, ms []metric) []metric {
	got := make(map[string]metric, len(ms))
	for _, m := range ms {
		got[m.name] = m
	}
	out := make([]metric, 0, len(set))
	for _, s := range set {
		m, ok := got[s.name]
		if !ok {
			m = metric{s.name, 0, s.unit, 0}
		}
		out = append(out, m)
	}
	return out
}
