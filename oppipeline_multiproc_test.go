package gupcxx_test

// The cost of leaving the address space: the same op-pipeline families
// measured two ways on one machine:
//
//   - BenchmarkOpPipelineUDP — an in-process UDP world. The ranks are
//     co-located, so the dynamic locality check resolves every access to
//     the in-memory path; the wire below is bound but idle. The eager
//     rows must stay at 0 allocs/op — the multiproc refactor may not tax
//     the single-process fast path — which the UDP row of
//     TestOpPipelineValueAllocationFree pins.
//   - BenchmarkOpPipelineMultiproc — a 2-process loopback world. The
//     bench process IS rank 0; rank 1 is a spawned child of this test
//     binary serving progress. Every op is a real UDP round trip through
//     the reliability layer: this is the floor a paper experiment pays
//     per remote op before wire latency is added.
//
// Both are developer tools (go test -bench); the benchmark of record for
// the cross-process path is perfbench's xproc-* workloads.

import (
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"gupcxx"
	"gupcxx/internal/boot"
)

// pipeFamily is one measured op family, shared by both harnesses.
type pipeFamily struct {
	name string
	run  func(b *testing.B, r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64])
}

func pipeFamilies() []pipeFamily {
	return []pipeFamily{
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
}

// udpWorld is microWorld on the UDP conduit: same two co-located ranks,
// but with the full wire substrate (sockets, reliability, liveness)
// armed underneath the in-memory path.
func udpWorld(b *testing.B, ver gupcxx.Version, fn func(r *gupcxx.Rank, target gupcxx.GlobalPtr[uint64])) {
	b.Helper()
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks:        2,
		Conduit:      gupcxx.UDP,
		Version:      ver,
		SegmentBytes: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
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

func BenchmarkOpPipelineUDP(b *testing.B) {
	for _, fam := range pipeFamilies() {
		b.Run(fam.name, func(b *testing.B) {
			for _, ver := range benchVersions {
				b.Run(ver.Name, func(b *testing.B) {
					b.ReportAllocs()
					fam := fam
					udpWorld(b, ver, func(r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
						b.ResetTimer()
						fam.run(b, r, t)
						b.StopTimer()
					})
				})
			}
		})
	}
}

// benchWorldEnv rebuilds the process environment without any leftover
// world contract or worker-scenario gate, so a spawned child sees exactly
// the variables we append.
func benchWorldEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, boot.EnvVar+"=") || strings.HasPrefix(kv, workerEnv+"=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// multiprocBenchWorld makes this benchmark process rank 0 of a 2-process
// loopback world: it hosts the rendezvous, spawns rank 1 (this test
// binary in worker mode, scenario "bench" — publish a target word, then
// serve progress until we depart), and runs fn against the target in the
// child's segment.
func multiprocBenchWorld(b *testing.B, fn func(r *gupcxx.Rank, target gupcxx.GlobalPtr[uint64])) {
	b.Helper()
	const epoch = 13
	rv, err := boot.NewRendezvous("127.0.0.1:0", 2, epoch)
	if err != nil {
		b.Fatal(err)
	}
	child := exec.Command(os.Args[0], "-test.run", "^TestMultiprocWorkerProcess$", "-test.count=1")
	spec1 := boot.Spec{Ranks: 2, Rank: 1, Epoch: epoch, Rendezvous: rv.Addr()}
	child.Env = append(benchWorldEnv(), workerEnv+"=bench", boot.EnvVar+"="+spec1.Env())
	child.Stdout = io.Discard
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		rv.Close()
		b.Fatal(err)
	}
	reap := func() {
		child.Process.Kill()
		child.Wait()
	}
	spec0 := boot.Spec{Ranks: 2, Rank: 0, Epoch: epoch, Rendezvous: rv.Addr()}
	os.Setenv(boot.EnvVar, spec0.Env())
	defer os.Unsetenv(boot.EnvVar)
	w, ok, err := gupcxx.WorldFromEnv(gupcxx.Config{SegmentBytes: 1 << 16})
	if err != nil || !ok {
		reap()
		b.Fatalf("bootstrap rank 0: ok=%v err=%v", ok, err)
	}
	if err := rv.Wait(); err != nil {
		reap()
		w.Close()
		b.Fatal(err)
	}
	runErr := w.Run(func(r *gupcxx.Rank) {
		target := gupcxx.New[uint64](r)
		targets := gupcxx.ExchangePtr(r, target)
		r.Barrier()
		fn(r, targets[1])
	})
	// No closing barrier: our departure (the goodbye frame sent by Close,
	// after the exit drain) is what releases the serving child.
	w.Close()
	if runErr != nil {
		reap()
		b.Fatal(runErr)
	}
	if err := child.Wait(); err != nil {
		b.Fatalf("serving rank: %v", err)
	}
}

func BenchmarkOpPipelineMultiproc(b *testing.B) {
	for _, fam := range pipeFamilies() {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			fam := fam
			multiprocBenchWorld(b, func(r *gupcxx.Rank, t gupcxx.GlobalPtr[uint64]) {
				b.ResetTimer()
				fam.run(b, r, t)
				b.StopTimer()
			})
		})
	}
}
