package gupcxx_test

// Unified-pipeline guards: allocation bounds for the eager fast path
// (including the value-carrying operations, whose per-call cell the
// pipeline's inline value futures remove) and the op-level latency/alloc
// benchmarks (go test -bench BenchmarkOpPipeline).

import (
	"runtime"
	"testing"
	"time"

	"gupcxx"
)

// TestOpPipelineValueAllocationFree pins the allocation contract of the
// unified pipeline's eager path, value-producing operations included:
// under the inline-value version knob an eagerly-completed Rget or
// fetching atomic returns its value inside the future struct itself, so
// the §III-B per-call cell allocation is gone. The value-less forms were
// already allocation-free and must stay so. The UDP row is an in-process
// world with the whole wire substrate armed (sockets, reliability ticker,
// liveness) under the in-memory path: co-located ranks must not pay for
// it.
func TestOpPipelineValueAllocationFree(t *testing.T) {
	for _, conduit := range []gupcxx.Conduit{gupcxx.PSHM, gupcxx.UDP} {
		t.Run(conduit.String(), func(t *testing.T) {
			w, err := gupcxx.NewWorld(gupcxx.Config{
				Ranks: 2, Conduit: conduit, Version: gupcxx.Eager2021_3_6, SegmentBytes: 1 << 14,
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
					ad := gupcxx.NewAtomicDomain[uint64](r)
					var sink uint64
					// The destination buffer lives outside the measured
					// closure: the remote branch of RgetBulk retains it
					// until the reply, so a per-iteration buffer would be
					// charged one escape per run.
					var buf [1]uint64
					cases := []struct {
						name string
						op   func()
					}{
						{"put", func() { gupcxx.Rput(r, 1, tgts[1]).Wait() }},
						{"rget", func() { sink += gupcxx.Rget(r, tgts[1]).Wait() }},
						{"fetchadd", func() { sink += ad.FetchAdd(tgts[1], 1).Wait() }},
						{"load", func() { sink += ad.Load(tgts[1]).Wait() }},
						{"rgetbulk", func() { gupcxx.RgetBulk(r, tgts[1], buf[:]).Wait() }},
					}
					for _, c := range cases {
						if avg := testing.AllocsPerRun(1000, c.op); avg != 0 {
							t.Errorf("eager on-node %s allocates %.2f objects/op, want 0", c.name, avg)
						}
					}
					benchSinkU64 = sink
				}
				r.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpPipelineAsyncRecycling guards the asynchronous leg: steady-state
// off-node-style traffic (SIM conduit) must recycle its completion
// records through the engine freelist rather than allocating one per
// operation. The bound is loose (the substrate's arena warms up during
// the run) but catches a per-op completion-state regression.
func TestOpPipelineAsyncRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.SIM, Version: gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 14, RanksPerNode: 1,
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
			// Warm the freelists and wire-buffer pools.
			for i := 0; i < 64; i++ {
				gupcxx.Rput(r, uint64(i), tgts[1]).Wait()
			}
			avg := testing.AllocsPerRun(500, func() {
				gupcxx.Rput(r, 1, tgts[1]).Wait()
			})
			// The future cell for the async completion is the one
			// irreducible allocation; the AsyncCompletion record itself
			// must come from the freelist.
			if avg > 1 {
				t.Errorf("steady-state off-node put allocates %.2f objects/op, want <= 1", avg)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpPipelineObservedAllocationFree pins the operations plane's cost
// contract on the eager fast path: a world with the full plane active —
// event bus wired into the substrate, counter mirrors flushing, metrics
// listener bound — must keep eager ops at 0 allocs/op while the phase
// hook is nil, and installing the latency sampler (PhaseSampler) must add
// clock reads but still no allocations.
func TestOpPipelineObservedAllocationFree(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.PSHM, Version: gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 14, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, mode := range []string{"observed", "sampled"} {
		if mode == "sampled" {
			w.EnablePhaseSampling()
		}
		err = w.Run(func(r *gupcxx.Rank) {
			tgt := gupcxx.New[uint64](r)
			tgts := gupcxx.ExchangePtr(r, tgt)
			r.Barrier()
			if r.Me() == 0 {
				ad := gupcxx.NewAtomicDomain[uint64](r)
				var sink uint64
				var buf [1]uint64 // outside the closure, as in the table above
				cases := []struct {
					name string
					op   func()
				}{
					{"put", func() { gupcxx.Rput(r, 1, tgts[1]).Wait() }},
					{"get", func() { sink += gupcxx.Rget(r, tgts[1]).Wait() }},
					{"getbulk", func() { gupcxx.RgetBulk(r, tgts[1], buf[:]).Wait() }},
					{"fetchadd", func() { sink += ad.FetchAdd(tgts[1], 1).Wait() }},
				}
				for _, c := range cases {
					if avg := testing.AllocsPerRun(1000, c.op); avg != 0 {
						t.Errorf("%s eager %s allocates %.2f objects/op, want 0", mode, c.name, avg)
					}
				}
				benchSinkU64 = sink
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if mc := w.LatencyHist(gupcxx.OpRMA, gupcxx.PhaseEagerCompleted).Count(); mc == 0 {
		t.Error("sampled pass recorded no rma/eager-completed latencies")
	}
}

// TestOpPipelineObservedAsyncContinuation extends the guard to the
// asynchronous continuation leg: off-node-style continuation ops under an
// active operations plane must stay allocation-free in steady state, just
// as they are unobserved (TestContinuationAllocationFree's contract).
func TestOpPipelineObservedAsyncContinuation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.SIM, Version: gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 14, RanksPerNode: 1, SimLatency: time.Nanosecond,
		MetricsAddr: "127.0.0.1:0",
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
			for i := 0; i < 64; i++ { // warm freelists and wire pools
				gupcxx.Rput(r, uint64(i), tgts[1]).Wait()
			}
			fired, issued := 0, 0
			cx := []gupcxx.Cx{gupcxx.OpContinue(func(error) { fired++ })}
			avg := testing.AllocsPerRun(500, func() {
				gupcxx.Rput(r, 1, tgts[1], cx...)
				issued++
				progressUntil(r, func() bool { return fired >= issued })
			})
			if avg != 0 {
				t.Errorf("observed async continuation put allocates %.2f objects/op, want 0", avg)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOpPipeline measures per-op latency and allocations through the
// unified pipeline for the paper's microbenchmark families, per library
// version. The eager rows' 0 allocs/op is pinned live by
// TestOpPipelineValueAllocationFree.
func BenchmarkOpPipeline(b *testing.B) {
	type bench struct {
		name string
		run  func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64])
	}
	benches := []bench{
		{"put", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			for i := 0; i < b.N; i++ {
				gupcxx.Rput(r, uint64(i), t).Wait()
			}
		}},
		{"get", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += gupcxx.Rget(r, t).Wait()
			}
			benchSinkU64 = sink
		}},
		{"getbulk", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			var buf [1]uint64
			for i := 0; i < b.N; i++ {
				gupcxx.RgetBulk(r, t, buf[:]).Wait()
			}
		}},
		{"fetchadd", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			ad := gupcxx.NewAtomicDomain[uint64](r)
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += ad.FetchAdd(t, 1).Wait()
			}
			benchSinkU64 = sink
		}},
		{"rpc", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			for i := 0; i < b.N; i++ {
				gupcxx.RPC(r, 1, func(*gupcxx.Rank) {}).Wait()
			}
		}},
	}
	for _, bm := range benches {
		b.Run(bm.name, func(b *testing.B) {
			for _, ver := range benchVersions {
				b.Run(ver.Name, func(b *testing.B) {
					b.ReportAllocs()
					microWorld(b, ver, func(r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
						b.ResetTimer()
						bm.run(b, r, t)
					})
				})
			}
		})
	}
}

// obsBenchWorld is the operations-plane harness for BENCH_6: the same
// on-node eager world as microWorld, but with the observability surface
// fully active — metrics listener bound, counter mirrors flushing, event
// bus wired into the substrate — and, when sampled is set, the latency
// hook (World.PhaseSampler) installed on every rank.
func obsBenchWorld(b *testing.B, sampled bool, fn func(r *gupcxx.Rank, target gupcxx.GlobalPtr[uint64])) {
	b.Helper()
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks:        2,
		Conduit:      gupcxx.PSHM,
		Version:      gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 16,
		MetricsAddr:  "127.0.0.1:0",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if sampled {
		w.EnablePhaseSampling()
	}
	err = w.Run(func(r *gupcxx.Rank) {
		target := gupcxx.New[uint64](r)
		targets := gupcxx.ExchangePtr(r, target)
		r.Barrier()
		if r.Me() == 0 {
			fn(r, targets[1])
		}
		r.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchObsPipeline reruns the eager pipeline families under an active
// operations plane. Observed mode (nil hook) is the overhead proof: the
// rows must match the unobserved baseline within the check_bench6.sh
// tolerance and stay at 0 allocs/op. Sampled mode adds two clock reads
// per op (hook timestamping) — real latency, paid only by opted-in
// worlds — and must still allocate nothing.
func benchObsPipeline(b *testing.B, sampled bool) {
	type bench struct {
		name string
		run  func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64])
	}
	benches := []bench{
		{"put", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			for i := 0; i < b.N; i++ {
				gupcxx.Rput(r, uint64(i), t).Wait()
			}
		}},
		{"get", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += gupcxx.Rget(r, t).Wait()
			}
			benchSinkU64 = sink
		}},
		{"getbulk", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			var buf [1]uint64
			for i := 0; i < b.N; i++ {
				gupcxx.RgetBulk(r, t, buf[:]).Wait()
			}
		}},
		{"fetchadd", func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
			ad := gupcxx.NewAtomicDomain[uint64](r)
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += ad.FetchAdd(t, 1).Wait()
			}
			benchSinkU64 = sink
		}},
	}
	for _, bm := range benches {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			obsBenchWorld(b, sampled, func(r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
				b.ResetTimer()
				bm.run(b, r, t)
			})
		})
	}
}

// BenchmarkOpPipelineObserved: eager families with the operations plane
// active and a nil phase hook. Recorded in BENCH_6.json next to the
// BenchmarkOpPipeline baseline rows; check_bench6.sh bounds the geomean
// latency overhead and pins 0 allocs/op.
func BenchmarkOpPipelineObserved(b *testing.B) { benchObsPipeline(b, false) }

// BenchmarkOpPipelineSampled: the same families with the latency sampler
// hook installed. check_bench6.sh pins these rows at 0 allocs/op (the
// clock reads cost real nanoseconds and are not latency-bounded).
func BenchmarkOpPipelineSampled(b *testing.B) { benchObsPipeline(b, true) }

// asyncBenchWorld is the off-node (SIM) harness for the asynchronous
// pipeline benchmarks: two single-rank nodes under the eager version with
// nanosecond wire latency (the CPU path is the measurement), with a wire
// RPC echo handler registered so the rpcwire rows have a target.
func asyncBenchWorld(b *testing.B, fn func(r *gupcxx.Rank, echo gupcxx.RPCHandlerID, target gupcxx.GlobalPtr[uint64])) {
	b.Helper()
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks:        2,
		Conduit:      gupcxx.SIM,
		RanksPerNode: 1,
		SimLatency:   time.Nanosecond,
		Version:      gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	echo := w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte { return args })
	err = w.Run(func(r *gupcxx.Rank) {
		target := gupcxx.New[uint64](r)
		targets := gupcxx.ExchangePtr(r, target)
		r.Barrier()
		if r.Me() == 0 {
			fn(r, echo, targets[1])
		}
		r.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// progressUntil drains the initiator's engine until done reports true,
// yielding to the peer rank's goroutine when no work is available (the
// same discipline Future.Wait applies through Engine.Idle).
func progressUntil(r *gupcxx.Rank, done func() bool) {
	for !done() {
		if r.Progress() == 0 {
			runtime.Gosched()
		}
	}
}

// BenchmarkOpPipelineAsync measures the asynchronous (off-node) leg of the
// pipeline per completion form: the future forms pay the one irreducible
// cell escape per op, the continuation forms run cell-free — 0 allocs/op
// for put and getbulk, and the pooled wire-RPC call record holds the
// rpcwire continuation row at <= 2 (args copy + reply view). Those bounds
// are pinned live by TestContinuationAllocationFree.
func BenchmarkOpPipelineAsync(b *testing.B) {
	type bench struct {
		name string
		run  func(b *testing.B, r *gupcxx.Rank, echo gupcxx.RPCHandlerID, t gupcxx.GlobalPtr[uint64])
	}
	benches := []bench{
		{"put/future", func(b *testing.B, r *gupcxx.Rank, _ gupcxx.RPCHandlerID, t gupcxx.GlobalPtr[uint64]) {
			for i := 0; i < b.N; i++ {
				gupcxx.Rput(r, uint64(i), t).Wait()
			}
		}},
		{"put/cont", func(b *testing.B, r *gupcxx.Rank, _ gupcxx.RPCHandlerID, t gupcxx.GlobalPtr[uint64]) {
			fired, issued := 0, 0
			cx := []gupcxx.Cx{gupcxx.OpContinue(func(error) { fired++ })}
			for i := 0; i < b.N; i++ {
				gupcxx.Rput(r, uint64(i), t, cx...)
				issued++
				progressUntil(r, func() bool { return fired >= issued })
			}
		}},
		{"getbulk/cont", func(b *testing.B, r *gupcxx.Rank, _ gupcxx.RPCHandlerID, t gupcxx.GlobalPtr[uint64]) {
			fired, issued := 0, 0
			cx := []gupcxx.Cx{gupcxx.OpContinue(func(error) { fired++ })}
			var buf [1]uint64
			for i := 0; i < b.N; i++ {
				gupcxx.RgetBulk(r, t, buf[:], cx...)
				issued++
				progressUntil(r, func() bool { return fired >= issued })
			}
		}},
		{"rpc/future", func(b *testing.B, r *gupcxx.Rank, _ gupcxx.RPCHandlerID, _ gupcxx.GlobalPtr[uint64]) {
			fn := func(*gupcxx.Rank) {}
			for i := 0; i < b.N; i++ {
				gupcxx.RPC(r, 1, fn).Wait()
			}
		}},
		{"rpc/cont", func(b *testing.B, r *gupcxx.Rank, _ gupcxx.RPCHandlerID, _ gupcxx.GlobalPtr[uint64]) {
			fired, issued := 0, 0
			cx := []gupcxx.Cx{gupcxx.OpContinue(func(error) { fired++ })}
			fn := func(*gupcxx.Rank) {}
			for i := 0; i < b.N; i++ {
				gupcxx.RPC(r, 1, fn, cx...)
				issued++
				progressUntil(r, func() bool { return fired >= issued })
			}
		}},
		{"rpcwire/future", func(b *testing.B, r *gupcxx.Rank, echo gupcxx.RPCHandlerID, _ gupcxx.GlobalPtr[uint64]) {
			args := []byte{1, 2, 3, 4}
			for i := 0; i < b.N; i++ {
				gupcxx.RPCWire(r, 1, echo, args).Wait()
			}
		}},
		{"rpcwire/cont", func(b *testing.B, r *gupcxx.Rank, echo gupcxx.RPCHandlerID, _ gupcxx.GlobalPtr[uint64]) {
			fired, issued := 0, 0
			cont := func([]byte, error) { fired++ }
			args := []byte{1, 2, 3, 4}
			for i := 0; i < b.N; i++ {
				gupcxx.RPCWireContinue(r, 1, echo, args, cont)
				issued++
				progressUntil(r, func() bool { return fired >= issued })
			}
		}},
	}
	for _, bm := range benches {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			asyncBenchWorld(b, func(r *gupcxx.Rank, echo gupcxx.RPCHandlerID, t gupcxx.GlobalPtr[uint64]) {
				// Warm the completion freelists and wire-buffer pools so the
				// record reflects the steady state, not arena growth.
				for i := 0; i < 64; i++ {
					gupcxx.Rput(r, uint64(i), t).Wait()
				}
				b.ResetTimer()
				bm.run(b, r, echo, t)
			})
		})
	}
}
