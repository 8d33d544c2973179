package main

import (
	"time"

	"gupcxx"
)

// bench is one workload's per-rank body. The harness brackets each
// phase with barriers and counter snapshots; only run is timed.
type bench interface {
	// prepare readies the next phase (untimed).
	prepare(c *rankCtx)
	// run is the timed closed loop. It returns once mono() passes until
	// or, where the workload sets phaseSteps, after that many steps.
	run(c *rankCtx, until int64, tr *tracer, rep *report)
	// finish checks the phase's outputs (untimed) and counts mismatches
	// into rep.Failed.
	finish(c *rankCtx, rep *report)
}

// rankCtx is one rank's view of the running benchmark.
type rankCtx struct {
	r      *gupcxx.Rank
	w      *gupcxx.World
	opts   options
	leader bool // takes the process-wide snapshots (one rank per process)
	peer   int  // the other rank of the two-rank world
	phase  int  // phases run so far, across regions; positions GUPS streams

	lastFlow, lastRSS int64
}

// snap reads the counters whose deltas a phase accumulates: the rank's
// engine counters, plus the process-wide ones on the leader.
func (c *rankCtx) snap() map[string]int64 {
	m := rankCounters(c.r)
	if c.leader {
		for k, v := range procCounters(c.w) {
			m[k] = v
		}
	}
	return m
}

// How often the loops sample the pair's congestion state and the
// process's resident set.
const (
	flowEvery = int64(10 * time.Millisecond)
	rssEvery  = int64(100 * time.Millisecond)
)

// tick samples, at most every flowEvery, this rank's smoothed RTT and
// window toward its peer (on-node worlds have no reliability layer to
// sample), and, on the leader, at most every rssEvery, the resident set.
func (c *rankCtx) tick(now int64, rep *report) {
	if c.opts.wl.xproc && now-c.lastFlow >= flowEvery {
		c.lastFlow = now
		fs := c.r.Flow(c.peer)
		rep.sample("gasnet.srtt_us", fs.SRTT.Microseconds())
		rep.sample("gasnet.window", int64(fs.Window))
	}
	if c.leader && now-c.lastRSS >= rssEvery {
		c.lastRSS = now
		kb := residentKB()
		rep.sample("proc.rss_kb", kb)
		rep.max("proc.rss_peak_kb", kb)
	}
}

// measure runs one timed region of length dur: phases until rank 0's
// clock passes the region's end. Collective across ranks. Rank 0 alone
// sets rep.Seconds, the summed wall time of the phases' timed parts.
func (c *rankCtx) measure(b bench, dur time.Duration, tr *tracer) report {
	var rep report
	regionEnd := mono() + int64(dur)
	c.lastRSS = 0
	for {
		b.prepare(c)
		c.r.Barrier()
		before := c.snap()
		t0 := mono()
		c.tick(t0, &rep)
		b.run(c, regionEnd, tr, &rep)
		tb := mono()
		c.r.Barrier()
		t1 := mono()
		rep.add(diff(before, c.snap()))
		tr.record(tr.newID(), "barrier", tb, t1)
		if c.r.Me() == 0 {
			rep.Seconds += float64(t1-t0) / 1e9
		}
		b.finish(c, &rep)
		c.phase++
		more := uint64(0)
		if c.r.Me() == 0 && mono() < regionEnd {
			more = 1
		}
		if c.r.BroadcastU64(0, more) == 0 {
			return rep
		}
	}
}

// regions lists the timed regions of a run: one untraced region, or, in
// a traced run, an untraced half followed by a traced half so the
// tracing overhead is measured within the run.
func regions(o options) []bool {
	if o.trace {
		return []bool{false, true}
	}
	return []bool{false}
}

// regionLength is the duration of each region of one measured world.
func regionLength(o options) time.Duration {
	return time.Duration(o.seconds * float64(time.Second) / float64(measuredRuns*len(regions(o))))
}
