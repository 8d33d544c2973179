package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gupcxx"
	"gupcxx/internal/boot"
)

// worldEpoch stamps the two-process worlds; any fixed value works, since
// each set-up boots a fresh world with a fresh rendezvous.
const worldEpoch = 11

// childWait bounds how long the bench waits for the spawned rank to
// exit once its own side of the world has closed.
const childWait = 30 * time.Second

// setupTimes are the phases of one set-up, in seconds: from the first
// call until rank 0's first completed barrier. rssKB is the largest
// resident set of the world's processes right after that barrier.
type setupTimes struct {
	total, spawn, rendezvous, worldInit, tableInit, firstBarrier float64
	rssKB                                                        int64
}

// rankOut is what one rank's body hands back to its process.
type rankOut struct {
	// mono() readings: table initialisation began and ended, and the
	// first barrier returned.
	initStart, initEnd, barrierAt int64
	setupRSS                      int64 // KiB resident after the first barrier; leader only
	regions                       []report
	tr                            *tracer
}

// worldResult is one world's outcome in the bench process.
type worldResult struct {
	setup   setupTimes
	regions []report // merged across every rank of every process
	tracers []*tracer
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// runRank is every rank's body, in the bench process and in the spawned
// one alike: allocate and initialise the workload's state, meet at the
// first barrier, and, when measuring, run the timed regions.
func runRank(r *gupcxx.Rank, w *gupcxx.World, o options, h *pingHandlers, measure bool) rankOut {
	c := &rankCtx{r: r, w: w, opts: o, leader: r.Me() == 0 || w.Multiproc(), peer: 1 - r.Me()}
	var out rankOut
	out.initStart = mono()
	var b bench
	if o.wl.ping {
		b = newPing(c, h)
	} else {
		g, err := newGups(c)
		if err != nil {
			panic(err) // the segment is sized for the table; only a bug gets here
		}
		b = g
	}
	out.initEnd = mono()
	r.Barrier()
	out.barrierAt = mono()
	if c.leader {
		out.setupRSS = residentKB()
	}
	if !measure {
		return out
	}
	if o.wl.drop > 0 {
		setFault(w, r.Me(), gupcxx.FaultConfig{Seed: int64(splitmix(o.seed ^ 0xfa17)), Drop: o.wl.drop})
	}
	out.tr = newTracer(r.Me())
	for _, traced := range regions(o) {
		var tr *tracer
		if traced {
			tr = out.tr
		}
		out.regions = append(out.regions, c.measure(b, regionLength(o), tr))
	}
	if o.wl.drop > 0 {
		setFault(w, r.Me(), gupcxx.FaultConfig{})
	}
	r.Barrier()
	return out
}

func setFault(w *gupcxx.World, rank int, f gupcxx.FaultConfig) {
	if err := w.SetFault(rank, f); err != nil {
		panic(err) // the fault configs above are valid by construction
	}
}

// runWorld boots one world, runs it, and tears it down. Without measure
// it stops after the first barrier: a set-up sample only.
func runWorld(o options, measure bool, st *tracer) (worldResult, error) {
	var res worldResult
	id := st.newID()
	t0 := mono()
	var (
		w   *gupcxx.World
		ch  *child
		err error
	)
	if o.wl.xproc {
		ch, w, err = startXproc(o, measure, &res.setup, st, id)
	} else {
		w, err = gupcxx.NewWorld(gupcxx.Config{
			Ranks:        2,
			Conduit:      gupcxx.PSHM,
			Version:      gupcxx.Eager2021_3_6,
			SegmentBytes: o.wl.segmentBytes(),
		})
		res.setup.worldInit = secs(mono() - t0)
		st.record(id, "setup.world_init", t0, mono())
	}
	if err != nil {
		return res, err
	}
	var h *pingHandlers
	if o.wl.ping {
		h = registerPing(w)
	}
	outs := make([]rankOut, w.Ranks())
	runErr := w.Run(func(r *gupcxx.Rank) {
		outs[r.Me()] = runRank(r, w, o, h, measure)
	})
	if runErr == nil {
		lead := outs[0]
		res.setup.tableInit = secs(lead.initEnd - lead.initStart)
		res.setup.firstBarrier = secs(lead.barrierAt - lead.initEnd)
		res.setup.total = secs(lead.barrierAt - t0)
		res.setup.rssKB = lead.setupRSS
		st.record(id, "setup.table_init", lead.initStart, lead.initEnd)
		st.record(id, "setup.first_barrier", lead.initEnd, lead.barrierAt)
		res.regions = mergeRanks(outs)
		for i := range res.regions {
			inflightHighWater(w, &res.regions[i])
		}
		for _, out := range outs {
			if out.tr != nil {
				res.tracers = append(res.tracers, out.tr)
			}
		}
	}
	w.Close()
	if ch == nil {
		return res, runErr
	}
	cr, childErr := ch.wait()
	if err := errors.Join(runErr, childErr); err != nil {
		return res, err
	}
	if len(cr.Regions) != len(res.regions) {
		return res, fmt.Errorf("spawned rank reported %d regions, want %d", len(cr.Regions), len(res.regions))
	}
	res.setup.rssKB = max(res.setup.rssKB, cr.SetupRSS)
	res.regions = mergeRegions(res.regions, cr.Regions)
	return res, nil
}

// add folds another measured world of the same run into w, noting each
// region's median step time and op rate in that world. Every region runs
// at least one step on rank 0, so a region without one is an error.
func (w *worldResult) add(o worldResult) error {
	for i := range o.regions {
		rep := &o.regions[i]
		p50, ok := rep.Samples["step_ns"].median()
		if !ok || rep.Seconds <= 0 {
			return fmt.Errorf("measured region %d completed no step", i)
		}
		rep.stepP50s = []float64{p50}
		rep.opsRates = []float64{opsPerS(*rep)}
	}
	w.regions = mergeRegions(w.regions, o.regions)
	w.tracers = append(w.tracers, o.tracers...)
	return nil
}

// mergeRanks merges the same region across this process's ranks (ranks
// of another process have no output here).
func mergeRanks(outs []rankOut) []report {
	var merged []report
	for _, out := range outs {
		merged = mergeRegions(merged, out.regions)
	}
	return merged
}

// mergeRegions merges src into dst region by region.
func mergeRegions(dst, src []report) []report {
	for i, rep := range src {
		if i == len(dst) {
			dst = append(dst, report{})
		}
		dst[i].merge(rep)
	}
	return dst
}

// child is the spawned rank 1 of a two-process world.
type child struct {
	cmd *exec.Cmd
	out bytes.Buffer
	rv  *boot.Rendezvous
}

// startXproc makes this process rank 0 of a two-process loopback world:
// it hosts the rendezvous, spawns rank 1 (this binary in child mode) and
// boots its own side, timing each step.
func startXproc(o options, measure bool, st *setupTimes, tr *tracer, id uint64) (*child, *gupcxx.World, error) {
	t0 := mono()
	rv, err := boot.NewRendezvous("127.0.0.1:0", 2, worldEpoch)
	if err != nil {
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		rv.Close()
		return nil, nil, err
	}
	role := "setup"
	if measure {
		role = "run"
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	ch := &child{rv: rv}
	ch.cmd = exec.Command(exe, "--child", role, "--workload", o.wl.name,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace)
	spec := boot.Spec{Ranks: 2, Rank: 1, Epoch: worldEpoch, Rendezvous: rv.Addr()}
	// main cleared every gupcxx variable from this environment.
	ch.cmd.Env = append(os.Environ(), boot.EnvVar+"="+spec.Env())
	ch.cmd.Stdout = &ch.out
	ch.cmd.Stderr = os.Stderr
	// The spawned rank must not outlive the bench, however it exits.
	ch.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := ch.cmd.Start(); err != nil {
		rv.Close()
		return nil, nil, err
	}
	t1 := mono()
	st.spawn = secs(t1 - t0)
	tr.record(id, "setup.spawn", t0, t1)

	spec.Rank = 0
	bs, err := boot.Bootstrap(spec)
	if err == nil {
		err = rv.Wait()
	}
	if err != nil {
		ch.kill()
		return nil, nil, err
	}
	t2 := mono()
	st.rendezvous = secs(t2 - t1)
	tr.record(id, "setup.rendezvous", t1, t2)

	w, err := gupcxx.NewWorld(xprocConfig(o, 0, bs))
	if err != nil {
		bs.Conn.Close()
		ch.kill()
		return nil, nil, err
	}
	t3 := mono()
	st.worldInit = secs(t3 - t2)
	tr.record(id, "setup.world_init", t2, t3)
	return ch, w, nil
}

func xprocConfig(o options, self int, bs *boot.Bootstrapped) gupcxx.Config {
	return gupcxx.Config{
		Ranks:        2,
		Conduit:      gupcxx.UDP,
		Version:      gupcxx.Eager2021_3_6,
		SegmentBytes: o.wl.segmentBytes(),
		Multiproc:    true,
		Self:         self,
		Epoch:        bs.Epoch,
		Rejoin:       bs.Rejoin,
		Peers:        bs.Peers,
		SelfConn:     bs.Conn,
	}
}

func (ch *child) kill() {
	ch.cmd.Process.Kill()
	ch.cmd.Wait()
	ch.rv.Close()
}

// wait reaps the spawned rank and returns its report. A non-zero exit, a
// hang past childWait or a missing report is an error.
func (ch *child) wait() (childReport, error) {
	defer ch.rv.Close()
	done := make(chan error, 1)
	go func() { done <- ch.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return childReport{}, fmt.Errorf("spawned rank: %w", err)
		}
	case <-time.After(childWait):
		ch.cmd.Process.Kill()
		<-done
		return childReport{}, fmt.Errorf("spawned rank did not exit within %v", childWait)
	}
	lines := strings.Split(strings.TrimSpace(ch.out.String()), "\n")
	var cr childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
		return cr, fmt.Errorf("spawned rank report: %w", err)
	}
	return cr, nil
}

// childReport is the spawned rank's last line of standard output.
type childReport struct {
	SetupRSS int64    `json:"setup_rss_kb"`
	Regions  []report `json:"regions"`
}

// childMain is the spawned rank: join the world the bench hosts, run the
// same rank body, and report the timed regions' deltas on stdout.
func childMain(o options) error {
	spec, ok, err := boot.FromEnv()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("child mode needs %s", boot.EnvVar)
	}
	bs, err := boot.Bootstrap(spec)
	if err != nil {
		return err
	}
	w, err := gupcxx.NewWorld(xprocConfig(o, spec.Rank, bs))
	if err != nil {
		bs.Conn.Close()
		return err
	}
	var h *pingHandlers
	if o.wl.ping {
		h = registerPing(w)
	}
	var out rankOut
	runErr := w.Run(func(r *gupcxx.Rank) {
		out = runRank(r, w, o, h, o.child == "run")
	})
	for i := range out.regions {
		inflightHighWater(w, &out.regions[i])
	}
	w.Close()
	if runErr != nil {
		return runErr
	}
	return json.NewEncoder(os.Stdout).Encode(childReport{SetupRSS: out.setupRSS, Regions: out.regions})
}
