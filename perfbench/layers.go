package main

// Per-layer metrics, derived from one traced phase. Every metric is
// printed on every workload; a layer the workload never calls reads 0,
// which is the prediction README.md records for it. The comment on
// each group names the end-to-end metric and workload it should move.

// layerAgg is what the formulas read: span totals, counters, the op
// count and the two phases' runtime figures.
type layerAgg struct {
	spans         map[string][2]float64 // name → total ms, total MB allocated
	counts        map[string]float64
	n             float64
	traced, plain phaseStats
}

func (a layerAgg) ms(name string) float64 { return a.spans[name][0] }
func (a layerAgg) mb(name string) float64 { return a.spans[name][1] }
func (a layerAgg) c(name string) float64  { return a.counts[name] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a layerAgg) serverMsPerReq() float64 {
	return ratio(a.c("server.req_seconds_sum")*1000, a.c("server.req_count"))
}

func (a layerAgg) fleetMsPerReq() float64 {
	return ratio(a.c("fleet.req_seconds_sum")*1000, a.c("fleet.req_count"))
}

type layerMetric struct {
	name, unit string
	f          func(a layerAgg) float64
}

var layerTable = []layerMetric{
	// Front end: cpu_ms_per_op and throughput_ops_s on study,
	// latency_p50_ms on edit-loop.
	{"lexer.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("lexer") / a.n }},
	{"lexer.tokens_per_op", "count", func(a layerAgg) float64 { return a.c("lexer.tokens") / a.n }},
	{"lexer.alloc_mb_per_op", "MB", func(a layerAgg) float64 { return a.mb("lexer") / a.n }},
	{"parser.ms_per_op", "ms", func(a layerAgg) float64 { return (a.ms("parser") - a.ms("lexer")) / a.n }},
	{"parser.alloc_mb_per_op", "MB", func(a layerAgg) float64 { return (a.mb("parser") - a.mb("lexer")) / a.n }},
	{"sema.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("sema") / a.n }},
	{"sema.alloc_mb_per_op", "MB", func(a layerAgg) float64 { return a.mb("sema") / a.n }},
	// latency_p50_ms on edit-loop only.
	{"sema.fingerprint_ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("sema.fingerprint") / a.n }},
	// Lowering and the per-procedure analyses: study.
	{"irbuild.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("irbuild") / a.n }},
	{"irbuild.alloc_mb_per_op", "MB", func(a layerAgg) float64 { return a.mb("irbuild") / a.n }},
	{"modref.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("modref") / a.n }},
	{"ssa.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("ssa") / a.n }},
	{"valnum.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("valnum") / a.n }},
	// Stages 1–4: throughput_ops_s and latency_tail_ms on deep-expr,
	// no change on study.
	{"core.stages_ms_per_op", "ms", func(a layerAgg) float64 {
		return (a.ms("core") - a.c("core.embedded_irbuild_ms") - a.ms("modref") - a.ms("ssa") - a.ms("valnum")) / a.n
	}},
	{"core.alloc_mb_per_op", "MB", func(a layerAgg) float64 { return (a.mb("core") - a.c("core.embedded_irbuild_mb")) / a.n }},
	{"core.solver_passes_per_op", "count", func(a layerAgg) float64 { return a.c("core.solver_passes") / a.n }},
	{"core.jf_evals_per_op", "count", func(a layerAgg) float64 { return a.c("core.jf_evals") / a.n }},
	{"core.jf_poly_per_op", "count", func(a layerAgg) float64 { return a.c("core.jf_poly") / a.n }},
	{"core.jf_support_sum_per_op", "count", func(a layerAgg) float64 { return a.c("core.jf_support_sum") / a.n }},
	{"dce.rounds_per_op", "count", func(a layerAgg) float64 { return a.c("dce.rounds") / a.n }},
	// Incremental engine: latency_p50_ms on edit-loop.
	{"incr.ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("incr") / a.n }},
	{"incr.reanalyzed_per_op", "count", func(a layerAgg) float64 { return a.c("incr.reanalyzed") / a.n }},
	{"incr.hit_ratio", "ratio", func(a layerAgg) float64 {
		return ratio(a.c("incr.hits"), a.c("incr.hits")+a.c("incr.misses"))
	}},
	{"incr.stage1_hit_ratio", "ratio", func(a layerAgg) float64 {
		return ratio(a.c("incr.stage1_hits"), a.c("incr.stage1_hits")+a.c("incr.stage1_misses"))
	}},
	{"incr.worklist_visited_per_op", "count", func(a layerAgg) float64 { return a.c("incr.worklist_visited") / a.n }},
	{"incr.cone_procs_per_op", "count", func(a layerAgg) float64 { return a.c("incr.cone_procs") / a.n }},
	// Summary store, snapshots and journal: edit-loop.
	{"summary.get_ms_per_op", "ms", func(a layerAgg) float64 { return a.c("summary.get_ms") / a.n }},
	{"summary.gets_per_op", "count", func(a layerAgg) float64 { return a.c("summary.gets") / a.n }},
	{"summary.get_hit_ratio", "ratio", func(a layerAgg) float64 { return ratio(a.c("summary.get_hits"), a.c("summary.gets")) }},
	{"summary.put_ms_per_op", "ms", func(a layerAgg) float64 { return a.c("summary.put_ms") / a.n }},
	{"summary.puts_per_op", "count", func(a layerAgg) float64 { return a.c("summary.puts") / a.n }},
	{"summary.put_bytes_per_op", "bytes", func(a layerAgg) float64 { return a.c("summary.put_bytes") / a.n }},
	{"summary.snapshot_load_ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("summary.snapshot_load") / a.n }},
	{"summary.snapshot_save_ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("summary.snapshot_save") / a.n }},
	{"summary.chain_delta_bytes_per_op", "bytes", func(a layerAgg) float64 { return a.c("summary.chain_delta_bytes") / a.n }},
	// latency_tail_ms (segment-rotation fsync) and setup_s on edit-loop.
	{"wal.open_ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("wal.open") / a.n }},
	{"wal.replayed_per_op", "count", func(a layerAgg) float64 { return a.c("wal.replayed") / a.n }},
	{"wal.close_ms_per_op", "ms", func(a layerAgg) float64 { return a.ms("wal.close") / a.n }},
	// Serving: latency_p50_ms and throughput_ops_s on serve only.
	{"server.ms_per_req", "ms", layerAgg.serverMsPerReq},
	{"server.overhead_ms_per_req", "ms", func(a layerAgg) float64 {
		if a.c("server.req_count") == 0 {
			return 0
		}
		return a.serverMsPerReq() - ratio(a.c("server.inproc_ms"), a.c("server.req_count"))
	}},
	{"server.resp_bytes_per_req", "bytes", func(a layerAgg) float64 { return a.c("server.resp_bytes") / a.n }},
	{"server.rejected_total", "count", func(a layerAgg) float64 { return a.c("server.rejected") }},
	{"server.coalesced_total", "count", func(a layerAgg) float64 { return a.c("server.coalesced") }},
	{"server.snapshot_evictions_total", "count", func(a layerAgg) float64 { return a.c("server.snapshot_evictions") }},
	{"fleet.ms_per_req", "ms", layerAgg.fleetMsPerReq},
	{"fleet.hop_ms_per_req", "ms", func(a layerAgg) float64 {
		if a.c("fleet.req_count") == 0 {
			return 0
		}
		return a.fleetMsPerReq() - a.serverMsPerReq()
	}},
	{"fleet.reroutes_total", "count", func(a layerAgg) float64 { return a.c("fleet.reroutes") }},
	{"fleet.shard_skew", "ratio", func(a layerAgg) float64 { return ratio(a.c("fleet.routed_max"), a.c("fleet.routed_min")) }},
	{"client.ms_per_req", "ms", func(a layerAgg) float64 {
		if a.c("fleet.req_count") == 0 {
			return 0
		}
		return a.ms("client")/a.n - a.fleetMsPerReq()
	}},
	// Runtime: cpu_ms_per_op on study and edit-loop.
	{"gc.cycles_per_op", "count", func(a layerAgg) float64 { return float64(a.traced.gcCycles) / a.n }},
	{"gc.cpu_frac", "frac", func(a layerAgg) float64 { return ratio(a.traced.gcCPU, a.traced.total) }},
	// Tracing overhead: the traced phase's wall time, less the extra
	// spans (work only the traced pass does), over the untraced
	// phase's, minus one.
	{"trace.overhead_frac", "frac", func(a layerAgg) float64 {
		return ratio(a.traced.wall.Seconds()-a.c("trace.extra_ms")/1000, a.plain.wall.Seconds()) - 1
	}},
}

func layerMetrics(tr *tracer, traced, plain phaseStats) map[string]metric {
	tr.mu.Lock()
	counts := make(map[string]float64, len(tr.counts))
	for k, v := range tr.counts {
		counts[k] = v
	}
	tr.mu.Unlock()
	a := layerAgg{spans: tr.totals(), counts: counts, n: float64(len(traced.results)), traced: traced, plain: plain}
	out := make(map[string]metric, len(layerTable))
	for _, m := range layerTable {
		out[m.name] = metric{m.f(a), m.unit}
	}
	return out
}
