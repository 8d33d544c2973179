package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"gupcxx"
)

// rankCounters reads one rank's progress-engine counters (the per-rank
// terms World.Stats sums). The engine's counters belong to the rank's
// goroutine, so call it only from there.
func rankCounters(r *gupcxx.Rank) map[string]int64 {
	s := r.Engine().Stats
	return map[string]int64{
		"core.eager":          s.EagerDeliveries,
		"core.cell_allocs":    s.CellAllocs,
		"core.deferq_pushes":  s.DeferQPushes,
		"core.whenall_elided": s.WhenAllElided,
		"core.progress_calls": s.ProgressCalls,
		"core.ops_failed":     s.OpsFailed,
	}
}

// procCounters reads the process-wide counters: the substrate's
// Domain.Stats (atomic, safe from any goroutine), rusage and MemStats.
func procCounters(w *gupcxx.World) map[string]int64 {
	d := w.Domain().Stats()
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]int64{
		"gasnet.datagrams":          d.DatagramsSent,
		"gasnet.acks_standalone":    d.AcksStandalone,
		"gasnet.acks_piggybacked":   d.AcksPiggybacked,
		"gasnet.retransmits":        d.Retransmits,
		"gasnet.coalesced_batches":  d.CoalescedBatches,
		"gasnet.coalesced_msgs":     d.CoalescedMsgs,
		"gasnet.sendmmsg":           d.SendmmsgCalls,
		"gasnet.send_batch_frames":  d.SendBatchFrames,
		"gasnet.recvmmsg":           d.RecvmmsgCalls,
		"gasnet.rto_expirations":    d.RTOExpirations,
		"gasnet.window_shrinks":     d.WindowShrinks,
		"gasnet.dups_dropped":       d.DupsDropped,
		"gasnet.pool_hits":          d.PoolHits,
		"gasnet.pool_misses":        d.PoolMisses,
		"gasnet.backpressure_fails": d.BackpressureFails,
		"proc.user_ns":              ru.Utime.Nano(),
		"proc.sys_ns":               ru.Stime.Nano(),
		"proc.vcsw":                 ru.Nvcsw,
		"proc.ivcsw":                ru.Nivcsw,
		"proc.mallocs":              int64(ms.Mallocs),
		"proc.gc_cycles":            int64(ms.NumGC),
	}
}

// inflightHighWater records the reliability layer's in-flight high-water
// mark. The domain keeps one maximum for its whole life, so it covers the
// world's set-up and every region, not only the one it is recorded in.
func inflightHighWater(w *gupcxx.World, r *report) {
	r.max("gasnet.inflight_highwater", w.Domain().Stats().RelInflightHighWater)
}

// residentKB reads the process's current resident set from
// /proc/self/statm; 0 where that file is unavailable.
func residentKB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize()) / 1024
}

// diff returns after − before for every key of after.
func diff(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF on a live process cannot fail; a zero value would only
	// read as an idle process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTimes is the aggregate line of /proc/stat: total jiffies and the
// steal share of them.
type cpuTimes struct{ total, steal int64 }

// readCPUTimes reads /proc/stat. Steal is a host diagnostic only, so a
// host without /proc/stat reads as zero rather than failing the run.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTimes
	if len(fields) < 2 || fields[0] != "cpu" {
		return t
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			continue
		}
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// hostContext describes the machine a run measured on.
type hostContext struct {
	nproc, gomaxprocs int
	stealPct          float64
}

func (h hostContext) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d steal=%.2f%%", h.nproc, h.gomaxprocs, h.stealPct)
}

func newHostContext(before, after cpuTimes) hostContext {
	return hostContext{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		stealPct:   100 * ratio(after.steal-before.steal, after.total-before.total),
	}
}
