package main

// metricDef names one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the runtime sees. Each applies to
// every workload; a "step" is one op on ping-pong and one batch of 512
// updates per variant on the GUPS workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"step_latency_p50_ns", "ns", "lower"},
	{"setup_rss_mb", "MB", "lower"},
}

// endToEndValues computes the end-to-end metrics of an untraced region.
func endToEndValues(rep report, setups []setupTimes) map[string]float64 {
	return map[string]float64{
		"setup_s":             median(pick(setups, func(s setupTimes) float64 { return s.total })),
		"step_latency_p50_ns": median(rep.stepP50s),
		"setup_rss_mb":        median(pick(setups, func(s setupTimes) float64 { return float64(s.rssKB) })) / 1024,
	}
}

// perLayer are the per-layer metrics of the traced run, named by module.
var perLayer = []metricDef{
	{"gupcxx.ops_per_s", "1/s", "higher"},
	{"gupcxx.initiate_ns_p50", "ns", "lower"},
	{"gupcxx.wait_ns_p50", "ns", "lower"},
	{"gupcxx.wait_ns_p99", "ns", "lower"},
	{"core.eager_per_op", "count/op", "higher"},
	{"core.cell_allocs_per_op", "count/op", "lower"},
	{"core.deferq_pushes_per_op", "count/op", "lower"},
	{"core.whenall_elided_per_op", "count/op", "higher"},
	{"core.progress_calls_per_op", "count/op", "lower"},
	{"core.ops_failed", "count", "lower"},
	{"gasnet.datagrams_per_op", "count/op", "lower"},
	{"gasnet.acks_standalone_per_op", "count/op", "lower"},
	{"gasnet.acks_piggybacked_per_op", "count/op", "higher"},
	{"gasnet.msgs_per_datagram", "count", "higher"},
	{"gasnet.frames_per_sendmmsg", "count", "higher"},
	{"gasnet.sendmmsg_per_op", "count/op", "lower"},
	{"gasnet.recvmmsg_per_op", "count/op", "lower"},
	{"gasnet.inflight_highwater", "count", "higher"},
	{"gasnet.backpressure_fails", "count", "lower"},
	{"gasnet.retransmits_per_op", "count/op", "lower"},
	{"gasnet.goodput_ratio", "ratio", "higher"},
	{"gasnet.rto_expirations_per_s", "1/s", "lower"},
	{"gasnet.window_shrinks", "count", "lower"},
	{"gasnet.dups_dropped_per_op", "count/op", "lower"},
	{"gasnet.srtt_us", "us", "lower"},
	{"gasnet.window", "count", "higher"},
	{"gasnet.pool_miss_ratio", "ratio", "lower"},
	{"boot.spawn_s", "s", "lower"},
	{"boot.rendezvous_s", "s", "lower"},
	{"gupcxx.world_init_s", "s", "lower"},
	{"gupcxx.first_barrier_s", "s", "lower"},
	{"gups.table_init_s", "s", "lower"},
	{"gups.table_words", "count", "higher"},
	{"gups.verify_errors", "count", "lower"},
	{"gups.rma_verify_errors", "count", "lower"},
	{"gups.rma_errors_max_phase", "count", "lower"},
	{"proc.cpu_ns_per_op", "ns", "lower"},
	{"proc.user_ns_per_op", "ns", "lower"},
	{"proc.sys_ns_per_op", "ns", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.vcsw_per_op", "count/op", "lower"},
	{"proc.ivcsw_per_op", "count/op", "lower"},
	{"proc.allocs_per_op", "count/op", "lower"},
	{"proc.rss_median_mb", "MB", "lower"},
	{"proc.rss_peak_mb", "MB", "lower"},
	{"trace.ops", "count", "higher"},
	{"trace.spans", "count", "higher"},
	{"trace.spans_dropped", "count", "lower"},
	{"trace.overhead_ops_per_s_pct", "%", "lower"},
	{"trace.overhead_step_p50_pct", "%", "lower"},
	{"host.nproc", "count", "higher"},
	{"host.gomaxprocs", "count", "higher"},
	{"host.steal_pct", "%", "lower"},
}

// notAvailable is reported for a per-layer percentile that the traced
// half's samples do not support: fewer than minBeyond samples beyond it,
// or, for the congestion samples of an on-node world, none at all. No
// measured value of these metrics is negative.
const notAvailable = -1

// perLayerValues computes the per-layer metrics from the traced region,
// comparing it with the untraced region of the same run for the
// tracing overhead. Counters cover every process of the world.
func perLayerValues(plain, traced report, setups []setupTimes, host hostContext, wl workload, tracers []*tracer) map[string]float64 {
	c, ops := traced.Counters, traced.Ops
	per := func(name string) float64 { return perOp(c[name], ops) }
	pct := func(name string, q float64) float64 {
		if v, ok := traced.Samples[name].quantile(q); ok {
			return v
		}
		return notAvailable
	}
	p50 := func(name string) float64 { return pct(name, 0.5) }
	rssMedianMB := float64(notAvailable)
	if kb, ok := traced.Samples["proc.rss_kb"].median(); ok {
		rssMedianMB = kb / 1024
	}
	setup := func(f func(setupTimes) float64) float64 { return median(pick(setups, f)) }
	datagrams := c["gasnet.datagrams"]
	var spans, dropped int64
	for _, t := range tracers {
		if t != nil {
			spans += int64(len(t.spans))
			dropped += t.dropped
		}
	}
	plainE2E := endToEndValues(plain, setups)
	tracedE2E := endToEndValues(traced, setups)
	plainE2E["ops_per_s"], tracedE2E["ops_per_s"] = median(plain.opsRates), median(traced.opsRates)
	// overhead is the traced half's cost against the untraced half, in
	// percent: positive when tracing made the metric worse.
	overhead := func(name string, higherBetter bool) float64 {
		if higherBetter {
			return 100 * (plainE2E[name]/tracedE2E[name] - 1)
		}
		return 100 * (tracedE2E[name]/plainE2E[name] - 1)
	}
	var tableWords float64
	if !wl.ping {
		tableWords = float64(int64(1) << wl.logTable)
	}
	return map[string]float64{
		"gupcxx.ops_per_s":       tracedE2E["ops_per_s"],
		"gupcxx.initiate_ns_p50": p50("initiate_ns"),
		"gupcxx.wait_ns_p50":     p50("wait_ns"),
		"gupcxx.wait_ns_p99":     pct("wait_ns", 0.99),

		"core.eager_per_op":              per("core.eager"),
		"core.cell_allocs_per_op":        per("core.cell_allocs"),
		"core.deferq_pushes_per_op":      per("core.deferq_pushes"),
		"core.whenall_elided_per_op":     per("core.whenall_elided"),
		"core.progress_calls_per_op":     per("core.progress_calls"),
		"core.ops_failed":                float64(c["core.ops_failed"]),
		"gasnet.datagrams_per_op":        perOp(datagrams+c["gasnet.acks_standalone"]+c["gasnet.retransmits"], ops),
		"gasnet.acks_standalone_per_op":  per("gasnet.acks_standalone"),
		"gasnet.acks_piggybacked_per_op": per("gasnet.acks_piggybacked"),
		"gasnet.msgs_per_datagram": ratio(
			c["gasnet.coalesced_msgs"]+datagrams-c["gasnet.coalesced_batches"], datagrams),
		"gasnet.frames_per_sendmmsg":   ratio(c["gasnet.send_batch_frames"], c["gasnet.sendmmsg"]),
		"gasnet.sendmmsg_per_op":       per("gasnet.sendmmsg"),
		"gasnet.recvmmsg_per_op":       per("gasnet.recvmmsg"),
		"gasnet.inflight_highwater":    float64(traced.Maxima["gasnet.inflight_highwater"]),
		"gasnet.backpressure_fails":    float64(c["gasnet.backpressure_fails"]),
		"gasnet.retransmits_per_op":    per("gasnet.retransmits"),
		"gasnet.goodput_ratio":         ratio(datagrams, datagrams+c["gasnet.retransmits"]),
		"gasnet.rto_expirations_per_s": float64(c["gasnet.rto_expirations"]) / traced.Seconds,
		"gasnet.window_shrinks":        float64(c["gasnet.window_shrinks"]),
		"gasnet.dups_dropped_per_op":   per("gasnet.dups_dropped"),
		"gasnet.srtt_us":               p50("gasnet.srtt_us"),
		"gasnet.window":                p50("gasnet.window"),
		"gasnet.pool_miss_ratio":       ratio(c["gasnet.pool_misses"], c["gasnet.pool_hits"]+c["gasnet.pool_misses"]),

		"boot.spawn_s":           setup(func(s setupTimes) float64 { return s.spawn }),
		"boot.rendezvous_s":      setup(func(s setupTimes) float64 { return s.rendezvous }),
		"gupcxx.world_init_s":    setup(func(s setupTimes) float64 { return s.worldInit }),
		"gupcxx.first_barrier_s": setup(func(s setupTimes) float64 { return s.firstBarrier }),
		"gups.table_init_s":      setup(func(s setupTimes) float64 { return s.tableInit }),

		"gups.table_words":          tableWords,
		"gups.verify_errors":        float64(c["gups.verify_errors"]),
		"gups.rma_verify_errors":    float64(c["gups.rma_verify_errors"]),
		"gups.rma_errors_max_phase": float64(traced.Maxima["gups.rma_errors_max_phase"]),

		"proc.cpu_ns_per_op":  perOp(c["proc.user_ns"]+c["proc.sys_ns"], ops),
		"proc.user_ns_per_op": per("proc.user_ns"),
		"proc.sys_ns_per_op":  per("proc.sys_ns"),
		"proc.gc_cycles":      float64(c["proc.gc_cycles"]),
		"proc.vcsw_per_op":    per("proc.vcsw"),
		"proc.ivcsw_per_op":   per("proc.ivcsw"),
		"proc.allocs_per_op":  per("proc.mallocs"),
		"proc.rss_median_mb":  rssMedianMB,
		"proc.rss_peak_mb":    float64(traced.Maxima["proc.rss_peak_kb"]) / 1024,

		"trace.ops":                    float64(ops),
		"trace.spans":                  float64(spans),
		"trace.spans_dropped":          float64(dropped),
		"trace.overhead_ops_per_s_pct": overhead("ops_per_s", true),
		"trace.overhead_step_p50_pct":  overhead("step_latency_p50_ns", false),

		"host.nproc":      float64(host.nproc),
		"host.gomaxprocs": float64(host.gomaxprocs),
		"host.steal_pct":  host.stealPct,
	}
}

func pick(setups []setupTimes, f func(setupTimes) float64) []float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s)
	}
	return xs
}

// opsPerS is one world's completed-op rate over a region: GUPS updates
// or ping-pong ops per second of rank 0's timed wall. The run reports the
// median over worlds as a per-layer figure only: every step a host stall
// touches lowers the rate, so it follows the host's steal share, where
// the median step passes over the stalled steps.
func opsPerS(rep report) float64 {
	return float64(rep.Ops) / rep.Seconds
}
