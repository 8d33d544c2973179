package main

import (
	"math"
	"math/bits"
	"sort"
)

// report is one process's (or, after merge, the whole world's) account of
// a timed region: the ops it completed, raw counter deltas, lifetime
// maxima and timing histograms. The spawned rank ships its reports to
// the bench as JSON, so the fields are exported.
type report struct {
	Ops      int64            `json:"ops"`
	Failed   int64            `json:"failed"`
	Seconds  float64          `json:"seconds"` // timed wall time; only rank 0 sets it
	Counters map[string]int64 `json:"counters"`
	Maxima   map[string]int64 `json:"maxima"`
	Samples  map[string]*hist `json:"samples"`
	// stepP50s and opsRates hold one median step time and one op rate
	// per measured world, set once the world's report is complete; the
	// run reports their medians, so a host stall during one world moves
	// them little.
	stepP50s, opsRates []float64
}

// add folds counter deltas into the report.
func (r *report) add(delta map[string]int64) {
	if r.Counters == nil {
		r.Counters = make(map[string]int64)
	}
	for k, v := range delta {
		r.Counters[k] += v
	}
}

// max raises a lifetime maximum.
func (r *report) max(name string, v int64) {
	if r.Maxima == nil {
		r.Maxima = make(map[string]int64)
	}
	if cur, ok := r.Maxima[name]; !ok || v > cur {
		r.Maxima[name] = v
	}
}

// sample records one timing sample.
func (r *report) sample(name string, v int64) {
	r.hist(name).add(v)
}

func (r *report) hist(name string) *hist {
	if r.Samples == nil {
		r.Samples = make(map[string]*hist)
	}
	h := r.Samples[name]
	if h == nil {
		h = &hist{}
		r.Samples[name] = h
	}
	return h
}

// merge folds another rank's, process's or measured world's report for
// the same region into r: ops, failures, counters, histograms and timed
// walls add (only rank 0 of each world has a wall), and maxima take the
// larger value.
func (r *report) merge(o report) {
	r.Ops += o.Ops
	r.Failed += o.Failed
	r.Seconds += o.Seconds
	r.add(o.Counters)
	for k, v := range o.Maxima {
		r.max(k, v)
	}
	for k, h := range o.Samples {
		r.hist(k).merge(h)
	}
	r.stepP50s = append(r.stepP50s, o.stepP50s...)
	r.opsRates = append(r.opsRates, o.opsRates...)
}

// hist is a log-linear histogram of non-negative samples: exact below
// histExact, then histSub buckets per power of two, so no bucket is wider
// than 1/128 of its values. Its memory is fixed however many samples it
// takes, which keeps the bench's own footprint out of rss_peak_mb, and
// histograms from several ranks and processes merge exactly.
type hist struct {
	N      int64   `json:"n"`
	Counts []int64 `json:"counts"`
}

const (
	histExact   = 256
	histSub     = 128
	histBuckets = histExact + 55*histSub // covers every non-negative int64
)

func bucketOf(v int64) int {
	if v < histExact {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 8 // v>>shift lies in [128, 256)
	return histExact + (shift-1)*histSub + int(uint64(v)>>shift) - histSub
}

// bucketBounds returns the smallest value of bucket i and its width.
func bucketBounds(i int) (lo, width int64) {
	if i < histExact {
		return int64(i), 1
	}
	j := i - histExact
	shift := j/histSub + 1
	return int64(j%histSub+histSub) << shift, 1 << shift
}

func (h *hist) add(v int64) {
	if h.Counts == nil {
		h.Counts = make([]int64, histBuckets)
	}
	h.Counts[bucketOf(v)]++
	h.N++
}

func (h *hist) merge(o *hist) {
	if o == nil || o.N == 0 {
		return
	}
	if h.Counts == nil {
		h.Counts = make([]int64, histBuckets)
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
}

// perOp normalises a counter delta by the ops completed; no ops gives 0.
func perOp(delta, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(delta) / float64(ops)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1) and whether at least
// minBeyond samples lie beyond it. A nil histogram has no samples.
func (h *hist) quantile(q float64) (float64, bool) {
	if h == nil || float64(h.N)*(1-q) < minBeyond-quantileEps {
		return 0, false
	}
	return h.at(q), true
}

// median returns the median of every sample, however few; ok is false
// only when there are none. The minBeyond rule guards tail percentiles,
// not the middle of the distribution.
func (h *hist) median() (float64, bool) {
	if h == nil || h.N == 0 {
		return 0, false
	}
	return h.at(0.5), true
}

// quantileEps absorbs rounding in q*n, so that e.g. p90 of 100 samples
// counts exactly ten beyond it.
const quantileEps = 1e-9

// at returns the q-quantile of a non-empty histogram by the nearest-rank
// rule, interpolated by rank within its bucket.
func (h *hist) at(q float64) float64 {
	k := max(int64(math.Ceil(q*float64(h.N)-quantileEps)), 1)
	var cum int64
	for i, c := range h.Counts {
		if cum+c >= k {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*float64(k-cum-1)/float64(c)
		}
		cum += c
	}
	panic("hist: counts do not add up to N")
}

// median of float values; NaN for none, so that a missing value cannot
// pass for a measurement. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
