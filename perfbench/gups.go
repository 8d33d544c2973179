package main

import (
	"math/bits"

	"gupcxx"
	"gupcxx/internal/gups"
)

// batch is the GUPS look-ahead depth: updates in flight per wait.
const batch = gups.DefaultBatch

// initEvery is the stride at which a traced GUPS run times single
// update initiations; timing every one would double the op's cost.
const initEvery = 64

// HPCC stream variants; each has its own table so that the exact atomic
// variant's check is not muddied by the racy RMA variant's lost updates.
const (
	amoVariant = iota
	rmaVariant
	variants
)

// gupsBench is one rank's share of the distributed GUPS tables, driven
// by the paper's amo-promises variant and, where the workload asks, the
// rma-futures variant in alternating batches.
type gupsBench struct {
	words  uint64 // words per table, all ranks together
	per    uint64 // words per table per rank
	shift  uint   // log2(per)
	base   int64  // seeded position in the HPCC stream
	ad     *gupcxx.AtomicDomain[uint64]
	tables [variants][]gupcxx.GlobalPtr[uint64] // rank-indexed base pointers
	local  [variants][]uint64                   // this rank's slices
	rngs   [variants]uint64                     // stream state this phase
	count  int64                                // updates per variant this phase

	vals, rans []uint64
	dests      []gupcxx.GlobalPtr[uint64]
	expect     []uint64
}

// newGups allocates and initialises the tables. Collective.
func newGups(c *rankCtx) (*gupsBench, error) {
	r := c.r
	words := uint64(1) << c.opts.wl.logTable
	per := words / uint64(r.N())
	g := &gupsBench{
		words:  words,
		per:    per,
		shift:  uint(bits.TrailingZeros64(per)),
		base:   gups.DefaultStreamOffset + int64(splitmix(c.opts.seed)&(1<<50-1)),
		ad:     gupcxx.NewAtomicDomain[uint64](r),
		vals:   make([]uint64, batch),
		rans:   make([]uint64, batch),
		dests:  make([]gupcxx.GlobalPtr[uint64], batch),
		expect: make([]uint64, per),
	}
	for v := 0; v < g.tableCount(c); v++ {
		p, err := gupcxx.AllocArray[uint64](r, int(per))
		if err != nil {
			return nil, err
		}
		g.tables[v] = gupcxx.ExchangePtr(r, p)
		g.local[v] = p.LocalSlice(r, int(per))
	}
	g.reset(c)
	return g, nil
}

func (g *gupsBench) tableCount(c *rankCtx) int {
	if c.opts.wl.rma {
		return 2
	}
	return 1
}

// reset restores the HPCC initial condition table[i] = i on this rank.
func (g *gupsBench) reset(c *rankCtx) {
	lo := uint64(c.r.Me()) * g.per
	for v := 0; v < g.tableCount(c); v++ {
		for i := range g.local[v] {
			g.local[v][i] = lo + uint64(i)
		}
	}
}

// streamStart is the HPCC stream value preceding the first update of
// rank's share of (phase, variant). Shares are 2^32 positions apart, far
// more than any phase performs, so no two shares overlap.
func (g *gupsBench) streamStart(phase, variant, rank int) uint64 {
	return gups.Starts(g.base + int64((phase*variants+variant)*2+rank)<<32)
}

// next advances an HPCC stream value (the LFSR of internal/gups).
func next(v uint64) uint64 {
	const poly = 0x7
	if int64(v) < 0 {
		return v<<1 ^ poly
	}
	return v << 1
}

func (g *gupsBench) dest(ran uint64, v int) gupcxx.GlobalPtr[uint64] {
	idx := ran & (g.words - 1)
	return g.tables[v][idx>>g.shift].Element(int(idx & (g.per - 1)))
}

func (g *gupsBench) prepare(c *rankCtx) {
	g.reset(c)
	g.count = 0
	for v := range g.rngs {
		g.rngs[v] = g.streamStart(c.phase, v, c.r.Me())
	}
}

func (g *gupsBench) run(c *rankCtx, until int64, tr *tracer, rep *report) {
	steps := c.opts.wl.phaseSteps
	for t := mono(); t < until && (steps == 0 || g.count < int64(steps*batch)); {
		g.amoBatch(c, tr, rep)
		if c.opts.wl.rma {
			g.rmaBatch(c, tr, rep)
		}
		g.count += batch
		end := mono()
		rep.sample("step_ns", end-t)
		c.tick(end, rep)
		t = end
	}
}

// amoBatch is the paper's "atomics w/promises": one remote atomic xor
// per update, all tracked by one promise.
func (g *gupsBench) amoBatch(c *rankCtx, tr *tracer, rep *report) {
	r := c.r
	id := tr.newID()
	t0 := mono()
	p := r.NewPromise()
	ran := g.rngs[amoVariant]
	for j := 0; j < batch; j++ {
		ran = next(ran)
		if tr != nil && j%initEvery == 0 {
			s := mono()
			g.ad.Xor(g.dest(ran, amoVariant), ran, gupcxx.OpPromise(p))
			rep.sample("initiate_ns", mono()-s)
			continue
		}
		g.ad.Xor(g.dest(ran, amoVariant), ran, gupcxx.OpPromise(p))
	}
	g.rngs[amoVariant] = ran
	tw := mono()
	err := p.Finalize().WaitErr()
	te := mono()
	rep.Ops += batch
	if err != nil {
		rep.Failed += batch
	}
	rep.sample("wait_ns", te-tw)
	tr.record(id, "amo.initiate", t0, tw)
	tr.record(id, "amo.wait", tw, te)
}

// rmaBatch is the paper's "pure RMA w/futures": a batch of gets
// conjoined with when_all, a wait, local xors, then a batch of puts.
func (g *gupsBench) rmaBatch(c *rankCtx, tr *tracer, rep *report) {
	r := c.r
	id := tr.newID()
	t0 := mono()
	f := r.MakeFuture()
	ran := g.rngs[rmaVariant]
	for j := 0; j < batch; j++ {
		ran = next(ran)
		g.rans[j] = ran
		g.dests[j] = g.dest(ran, rmaVariant)
		if tr != nil && j%initEvery == 0 {
			s := mono()
			res := gupcxx.RgetBulk(r, g.dests[j], g.vals[j:j+1])
			rep.sample("initiate_ns", mono()-s)
			f = r.WhenAll(f, res.Op)
			continue
		}
		f = r.WhenAll(f, gupcxx.RgetBulk(r, g.dests[j], g.vals[j:j+1]).Op)
	}
	g.rngs[rmaVariant] = ran
	tw := mono()
	err := f.WaitErr()
	t1 := mono()
	f = r.MakeFuture()
	for j := 0; j < batch; j++ {
		f = r.WhenAll(f, gupcxx.Rput(r, g.vals[j]^g.rans[j], g.dests[j]).Op)
	}
	t2 := mono()
	if perr := f.WaitErr(); err == nil {
		err = perr
	}
	te := mono()
	rep.Ops += batch
	if err != nil {
		rep.Failed += batch
	}
	rep.sample("wait_ns", (t1-tw)+(te-t2))
	tr.record(id, "rma.get.initiate", t0, tw)
	tr.record(id, "rma.get.wait", tw, t1)
	tr.record(id, "rma.put.initiate", t1, t2)
	tr.record(id, "rma.put.wait", t2, te)
}

// finish checks the phase. Every rank regenerates every rank's share of
// the stream and derives the expected contents of its own slice: the
// initial value xor every update that landed there. The atomic variant
// must match exactly; the unsynchronised rma-futures variant may lose
// updates to races, up to HPCC's 1% of the table. Collective.
func (g *gupsBench) finish(c *rankCtx, rep *report) {
	r := c.r
	counts := r.ExchangeU64(uint64(g.count))
	me := uint64(r.Me())
	lo := me * g.per
	var errs [variants]int64
	for v := 0; v < g.tableCount(c); v++ {
		clear(g.expect)
		for k, n := range counts {
			ran := g.streamStart(c.phase, v, k)
			for i := uint64(0); i < n; i++ {
				ran = next(ran)
				if idx := ran & (g.words - 1); idx>>g.shift == me {
					g.expect[idx&(g.per-1)] ^= ran
				}
			}
		}
		for i, got := range g.local[v] {
			if got != (lo+uint64(i))^g.expect[i] {
				errs[v]++
			}
		}
	}
	rep.add(map[string]int64{
		"gups.verify_errors":     errs[amoVariant],
		"gups.rma_verify_errors": errs[rmaVariant],
	})
	rep.Failed += errs[amoVariant]
	if !c.opts.wl.rma {
		return
	}
	total := int64(r.SumU64(uint64(errs[rmaVariant])))
	if r.Me() == 0 {
		rep.max("gups.rma_errors_max_phase", total)
		if uint64(total) > g.words/100 {
			rep.Failed += total
		}
	}
}

// splitmix is the SplitMix64 finaliser, used to spread the workload
// seed over the benchmark's input streams.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
