package gupcxx_test

// Shape tests: the paper's qualitative claims, asserted end-to-end with
// deliberately generous thresholds (the quantitative reproduction lives in
// cmd/benchall + EXPERIMENTS.md; these tests exist so a regression that
// destroys an effect — e.g. the eager path starting to allocate — fails
// `go test`). Skipped in -short mode.

import (
	"testing"
	"time"

	"gupcxx"
	"gupcxx/internal/gups"
	"gupcxx/internal/stats"
)

// onRank0 runs fn on rank 0 of a two-rank world, against a word in rank
// 1's segment.
func onRank0(t *testing.T, cfg gupcxx.Config, fn func(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64])) {
	t.Helper()
	w, err := gupcxx.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		tgt := gupcxx.New[uint64](r)
		tgts := gupcxx.ExchangePtr(r, tgt)
		r.Barrier()
		if r.Me() == 0 {
			fn(r, tgts[1])
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// timePerOp measures the best-of-5 mean time per operation of fn(iter
// count) on rank 0 of a two-rank world.
func timePerOp(t *testing.T, cfg gupcxx.Config, iters int, fn func(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64], n int)) time.Duration {
	t.Helper()
	var samples []time.Duration
	onRank0(t, cfg, func(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64]) {
		fn(r, tgt, iters/5+1) // warmup
		for s := 0; s < 5; s++ {
			start := time.Now()
			fn(r, tgt, iters)
			samples = append(samples, time.Since(start))
		}
	})
	return stats.Summarize(samples, 3).TopKMean / time.Duration(iters)
}

// putAllocs counts the heap allocations of one blocking put on rank 0 of
// a two-rank world.
func putAllocs(t *testing.T, cfg gupcxx.Config) float64 {
	t.Helper()
	var avg float64
	onRank0(t, cfg, func(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64]) {
		avg = testing.AllocsPerRun(1000, func() { gupcxx.Rput(r, 1, tgt).Wait() })
	})
	return avg
}

// minSpeedup is the eager-vs-defer ratio the wall-clock shape tests
// assert. The effect is ~7x in a plain build; race-detector
// instrumentation taxes every memory access on both sides and compresses
// the measured ratio toward 2x on a single-CPU host, so the bar drops
// there — still far above parity, so a destroyed effect keeps failing.
func minSpeedup() float64 {
	if raceEnabled {
		return 1.4
	}
	return 2
}

func putLoop(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64], n int) {
	for i := 0; i < n; i++ {
		gupcxx.Rput(r, uint64(i), tgt).Wait()
	}
}

// TestShapeOnNodeEagerWins: on-node puts under eager must be at least 2×
// faster than deferred (the paper reports ~90%+ op-rate improvements; we
// observe ~7×).
func TestShapeOnNodeEagerWins(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters = 100_000
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	eager, deferred := base, base
	eager.Version = gupcxx.Eager2021_3_6
	deferred.Version = gupcxx.Defer2021_3_6
	te := timePerOp(t, eager, iters, putLoop)
	td := timePerOp(t, deferred, iters, putLoop)
	t.Logf("on-node put: eager %v/op, defer %v/op", te, td)
	if float64(td) < minSpeedup()*float64(te) {
		t.Errorf("eager (%v) not ≥%.1fx faster than defer (%v) on-node", te, minSpeedup(), td)
	}
}

// TestShapeLegacyExtraAllocCosts: the allocation-elimination
// optimization, counted with the allocator — an on-node put under
// 2021.3.0 allocates exactly one more object than under 2021.3.6-defer
// (2 vs 1). What that object costs in wall clock is logged, not asserted:
// the gap is a few tens of nanoseconds, which race-detector scheduling
// noise flips.
func TestShapeLegacyExtraAllocCosts(t *testing.T) {
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	legacy, deferred := base, base
	legacy.Version = gupcxx.Legacy2021_3_0
	deferred.Version = gupcxx.Defer2021_3_6
	al, ad := putAllocs(t, legacy), putAllocs(t, deferred)
	t.Logf("on-node put: legacy %.0f allocs/op, defer %.0f allocs/op", al, ad)
	if al != ad+1 {
		t.Errorf("legacy put allocates %.2f objects/op, want exactly one more than 2021.3.6-defer's %.2f", al, ad)
	}
	if testing.Short() {
		return
	}
	const iters = 100_000
	tl := timePerOp(t, legacy, iters, putLoop)
	td := timePerOp(t, deferred, iters, putLoop)
	t.Logf("on-node put: legacy %v/op, defer %v/op", tl, td)
}

// TestShapeOffNodeParity: off-node, eager and defer must be within 2× of
// each other (the paper: statistically indistinguishable; our 1-core
// hosts add scheduling noise, hence the loose bound).
func TestShapeOffNodeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters = 5_000
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.SIM, SimLatency: 1, SegmentBytes: 1 << 14}
	eager, deferred := base, base
	eager.Version = gupcxx.Eager2021_3_6
	deferred.Version = gupcxx.Defer2021_3_6
	te := timePerOp(t, eager, iters, putLoop)
	td := timePerOp(t, deferred, iters, putLoop)
	t.Logf("off-node put: eager %v/op, defer %v/op", te, td)
	if te > 2*td || td > 2*te {
		t.Errorf("off-node parity violated: eager %v vs defer %v", te, td)
	}
}

// TestShapeGUPSFutureConjoining: the headline result — GUPS with
// conjoined futures must speed up by at least 2× under eager (paper:
// 2.4–13.5×).
func TestShapeGUPSFutureConjoining(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	run := func(ver gupcxx.Version) time.Duration {
		w, err := gupcxx.NewWorld(gupcxx.Config{
			Ranks: 4, Conduit: gupcxx.PSHM, Version: ver, SegmentBytes: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		cfg := gups.Config{LogTableSize: 16, UpdatesPerRank: 1 << 13, Batch: 64}
		var best time.Duration
		err = w.Run(func(r *gupcxx.Rank) {
			b, err := gups.New(r, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < 3; s++ {
				r.Barrier()
				start := time.Now()
				if err := b.Run(gups.RMAFuture); err != nil {
					t.Error(err)
				}
				r.Barrier()
				if r.Me() == 0 {
					d := time.Since(start)
					if best == 0 || d < best {
						best = d
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return best
	}
	te := run(gupcxx.Eager2021_3_6)
	td := run(gupcxx.Defer2021_3_6)
	t.Logf("GUPS rma-futures: eager %v, defer %v (%.1fx)", te, td, float64(td)/float64(te))
	if float64(td) < minSpeedup()*float64(te) {
		t.Errorf("future-conjoining speedup below %.1fx: eager %v, defer %v", minSpeedup(), te, td)
	}
}

// TestShapeEagerAllocationFree: the allocation claim, measured with the
// allocator rather than wall clock: an on-node eager put performs zero
// heap allocations.
func TestShapeEagerAllocationFree(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.PSHM, Version: gupcxx.Eager2021_3_6, SegmentBytes: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		tgt := gupcxx.New[uint64](r)
		tgts := gupcxx.ExchangePtr(r, tgt)
		r.Barrier()
		if r.Me() == 0 {
			avg := testing.AllocsPerRun(1000, func() {
				gupcxx.Rput(r, 1, tgts[1]).Wait()
			})
			if avg != 0 {
				t.Errorf("eager on-node put allocates %.2f objects/op, want 0", avg)
			}
			avgAmo := testing.AllocsPerRun(1000, func() {
				// Non-fetching atomic — also allocation-free.
				gupcxx.NewAtomicDomain[uint64](r).Add(tgts[1], 1).Wait()
			})
			// One allocation for the AtomicDomain handle itself is
			// created outside the measured path in real code; construct
			// it in-loop here and tolerate exactly that one.
			if avgAmo > 1 {
				t.Errorf("eager non-fetching atomic allocates %.2f objects/op, want ≤ 1", avgAmo)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
