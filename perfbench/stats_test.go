package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func histOf(vals ...int64) *hist {
	h := &hist{}
	for _, v := range vals {
		h.add(v)
	}
	return h
}

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(n - i) // descending: order must not matter
	}
	return s
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 0, q: 0.5, ok: false},
		{n: 19, q: 0.5, ok: false}, // 9.5 beyond the median
		{n: 20, q: 0.5, want: 10, ok: true},
		{n: 999, q: 0.99, ok: false},
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 100, q: 0.9, want: 90, ok: true},
	} {
		got, ok := histOf(seq(tc.n)...).quantile(tc.q)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	var none *hist
	if _, ok := none.quantile(0.5); ok {
		t.Errorf("nil histogram reported a quantile")
	}
}

func TestMedianTakesEverySample(t *testing.T) {
	// Three samples support no reported percentile, but have a median.
	if got, ok := histOf(7, 3, 5).median(); !ok || got != 5 {
		t.Fatalf("median of 3, 5, 7 = %g (ok=%v), want 5", got, ok)
	}
	if _, ok := (&hist{}).median(); ok {
		t.Fatalf("empty histogram reported a median")
	}
	var none *hist
	if _, ok := none.median(); ok {
		t.Fatalf("nil histogram reported a median")
	}
}

func TestHistBucketsTileAndStayNarrow(t *testing.T) {
	for i := 0; i < histBuckets-1; i++ {
		lo, w := bucketBounds(i)
		next, _ := bucketBounds(i + 1)
		if lo+w != next {
			t.Fatalf("bucket %d ends at %d, bucket %d starts at %d", i, lo+w, i+1, next)
		}
		if bucketOf(lo) != i || bucketOf(lo+w-1) != i {
			t.Fatalf("bucket %d [%d, %d) does not map back to itself", i, lo, lo+w)
		}
		if lo >= histExact && float64(w)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d is %d wide at %d", i, w, lo)
		}
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d of %d", got, histBuckets)
	}
	// A quantile of large samples is within a bucket's width of exact.
	h := &hist{}
	for v := int64(50_000); v < 60_000; v++ {
		h.add(v)
	}
	got, _ := h.quantile(0.5)
	if math.Abs(got-55_000) > 55_000.0/histSub {
		t.Fatalf("p50 = %g, want ~55000", got)
	}
}

func TestPerOpNormalisation(t *testing.T) {
	before := map[string]int64{"gasnet.datagrams": 100, "proc.user_ns": 5_000}
	after := map[string]int64{"gasnet.datagrams": 400, "proc.user_ns": 65_000, "core.eager": 7}
	d := diff(before, after)
	if d["gasnet.datagrams"] != 300 || d["proc.user_ns"] != 60_000 || d["core.eager"] != 7 {
		t.Fatalf("diff = %v", d)
	}
	if got := perOp(d["gasnet.datagrams"], 100); got != 3 {
		t.Errorf("datagrams per op = %g, want 3", got)
	}
	if got := perOp(d["proc.user_ns"], 0); got != 0 {
		t.Errorf("per-op of zero ops = %g, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio = %g", got)
	}
}

func TestMergeTwoProcessReports(t *testing.T) {
	bench := report{Ops: 1000, Seconds: 2.0}
	bench.add(map[string]int64{"gasnet.datagrams": 3000, "proc.user_ns": 10})
	bench.max("proc.rss_peak_kb", 4096)
	bench.max("gasnet.inflight_highwater", 7)
	bench.sample("wait_ns", 5)
	bench.sample("wait_ns", 7)

	// The spawned rank serves: no ops of its own, its own wire counters,
	// and no timed wall (only rank 0 sets it).
	var spawned report
	spawned.Failed = 1
	spawned.add(map[string]int64{"gasnet.datagrams": 2000, "gasnet.acks_standalone": 900})
	spawned.max("proc.rss_peak_kb", 8192)
	spawned.max("gasnet.inflight_highwater", 3)
	spawned.sample("wait_ns", 9)

	// The report crosses the process boundary as JSON.
	buf, err := json.Marshal(childReport{Regions: []report{spawned}})
	if err != nil {
		t.Fatal(err)
	}
	var cr childReport
	if err := json.Unmarshal(buf, &cr); err != nil {
		t.Fatal(err)
	}
	bench.merge(cr.Regions[0])

	if bench.Ops != 1000 || bench.Failed != 1 || bench.Seconds != 2.0 {
		t.Errorf("ops/failed/seconds = %d/%d/%g", bench.Ops, bench.Failed, bench.Seconds)
	}
	if got := bench.Counters["gasnet.datagrams"]; got != 5000 {
		t.Errorf("datagrams = %d, want both ends summed (5000)", got)
	}
	if got := bench.Counters["gasnet.acks_standalone"]; got != 900 {
		t.Errorf("acks_standalone = %d, want 900", got)
	}
	if bench.Maxima["proc.rss_peak_kb"] != 8192 || bench.Maxima["gasnet.inflight_highwater"] != 7 {
		t.Errorf("maxima = %v, want the larger of each", bench.Maxima)
	}
	if h := bench.Samples["wait_ns"]; h.N != 3 || h.Counts[5] != 1 || h.Counts[7] != 1 || h.Counts[9] != 1 {
		t.Errorf("wait_ns histogram holds %d samples, want both ends' 3", h.N)
	}
}

// world is one measured world's single region: a step sample of each
// given value, taking seconds of rank 0's wall for ops ops.
func world(ops int64, seconds float64, steps ...int64) worldResult {
	rep := report{Ops: ops, Seconds: seconds}
	for _, v := range steps {
		rep.sample("step_ns", v)
	}
	return worldResult{regions: []report{rep}}
}

func TestEndToEndIsMedianOverWorlds(t *testing.T) {
	var run worldResult
	for i, base := range []int64{1000, 5000, 1100, 1050, 1200} {
		var steps []int64
		for j := int64(0); j < 40; j++ {
			steps = append(steps, base+j)
		}
		if err := run.add(world(int64(100*(i+1)), 1, steps...)); err != nil {
			t.Fatal(err)
		}
	}
	// World medians are base+19; the stalled world (5000) must not pull
	// the run's figure, as it would in the pooled samples.
	e2e := endToEndValues(run.regions[0], []setupTimes{{total: 1}})
	if got := e2e["step_latency_p50_ns"]; got != 1119 {
		t.Fatalf("step_latency_p50_ns = %g, want the median world's 1119", got)
	}
	if got := median(run.regions[0].opsRates); got != 300 {
		t.Fatalf("op rate = %g, want the median world's 300", got)
	}
	if run.regions[0].Samples["step_ns"].N != 200 {
		t.Fatalf("pooled histogram lost samples")
	}
}

func TestSlowWorldsStillCount(t *testing.T) {
	// Worlds slowed so far that they finish only a few steps must still
	// count, and pull the median the way they should.
	var run worldResult
	for _, w := range []worldResult{
		world(10, 1, 100, 110, 120),
		world(10, 1, 9_000, 9_500),
		world(10, 1, 8_000),
	} {
		if err := run.add(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := endToEndValues(run.regions[0], []setupTimes{{total: 1}})["step_latency_p50_ns"]; got != 8_000 {
		t.Fatalf("step_latency_p50_ns = %g, want 8000 from the three worlds' medians", got)
	}
	// A world that ran no step is an error, never a zero.
	if err := run.add(world(0, 1)); err == nil {
		t.Fatalf("a world without steps was accepted")
	}
	if got := endToEndValues(report{}, []setupTimes{{total: 1}})["step_latency_p50_ns"]; !math.IsNaN(got) {
		t.Fatalf("step latency of no worlds = %g, want NaN", got)
	}
}

func TestUnsupportedPercentileIsNotAvailable(t *testing.T) {
	// 300 waits support p50 but leave only 3 beyond p99; a traced on-node
	// region has no congestion samples at all.
	var run worldResult
	w := world(300, 1, 1)
	for i := int64(0); i < 300; i++ {
		w.regions[0].sample("wait_ns", i)
	}
	w.regions[0].sample("proc.rss_kb", 2048)
	if err := run.add(w); err != nil {
		t.Fatal(err)
	}
	rep := run.regions[0]
	v := perLayerValues(rep, rep, []setupTimes{{total: 1}}, hostContext{}, workloads[0], nil)
	if v["gupcxx.wait_ns_p50"] != 149 {
		t.Errorf("wait_ns_p50 = %g, want 149", v["gupcxx.wait_ns_p50"])
	}
	for _, name := range []string{"gupcxx.wait_ns_p99", "gasnet.srtt_us", "gasnet.window"} {
		if v[name] != notAvailable {
			t.Errorf("%s = %g, want not available (%d)", name, v[name], notAvailable)
		}
	}
	if v["proc.rss_median_mb"] != 2 {
		t.Errorf("rss_median_mb = %g, want 2", v["proc.rss_median_mb"])
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in this package
// and the repository's BENCHMARK.json in step, and checks that every
// listed metric is computed.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef, values map[string]float64) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code defines %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, code %v", kind, i, l, d)
			}
			if v, ok := values[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s not computed (%g)", kind, d.name, v)
			}
		}
		if len(values) != len(defs) {
			t.Errorf("%s: %d values computed for %d metrics", kind, len(values), len(defs))
		}
	}
	var run worldResult
	if err := run.add(world(10, 1, 5, 6, 7)); err != nil {
		t.Fatal(err)
	}
	rep := run.regions[0]
	setups := []setupTimes{{total: 1}}
	check("end_to_end", spec.EndToEnd, endToEnd, endToEndValues(rep, setups))
	check("per_layer", spec.PerLayer, perLayer,
		perLayerValues(rep, rep, setups, hostContext{}, workloads[0], nil))

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code defines %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, spec.Workloads[i].Name, wl.name)
		}
	}
}
