// Command perfbench is gupcxx's benchmark: four closed-loop workloads
// driven through the public gupcxx API on at most two ranks, with every
// output checked. See README.md for why each workload exists and which
// layer each metric belongs to.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload onnode-gups --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The process exits
// non-zero if any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one named input set.
type workload struct {
	name  string
	xproc bool // rank 1 is a spawned process, reached over loopback UDP
	ping  bool // ping-pong instead of GUPS
	rma   bool // GUPS: alternate rma-futures batches with amo-promises
	// logTable is log2 of each GUPS table's words, all ranks together.
	logTable int
	// phaseSteps is the GUPS verification interval in steps per rank;
	// zero checks once per region. Racy rma-futures updates must be
	// checked often enough to stay within HPCC's 1% error budget.
	phaseSteps int
	drop       float64 // send-side datagram drop probability after set-up
}

var workloads = []workload{
	{name: "onnode-gups", rma: true, logTable: 16, phaseSteps: 8},
	{name: "xproc-pingpong", xproc: true, ping: true},
	{name: "xproc-gups", xproc: true, logTable: 18},
	{name: "xproc-gups-lossy", xproc: true, logTable: 18, drop: 0.02},
}

// segmentBytes sizes each rank's segment for the workload's tables.
func (wl workload) segmentBytes() int {
	tables := 1
	if wl.rma {
		tables = 2
	}
	return tables*(8<<wl.logTable)/2 + 1<<20
}

// options are one invocation's settings.
type options struct {
	wl      workload
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for the span file
	child   string // "" in the bench; "setup" or "run" in a spawned rank
}

// A run boots setupRuns worlds; setup_s is the median of their set-up
// times. measuredRuns of them, spread evenly among the rest, each run a
// share of the timed seconds. Fresh worlds give fresh process placement
// and fresh wire state, so a run does not hang on one world's luck, and
// interleaving the boots with the timed work, bootGap apart, means a
// host stall touches a few set-ups rather than all of them.
const (
	setupRuns    = 31
	measuredRuns = 8
	bootGap      = 20 * time.Millisecond
)

// measuredBoot reports whether boot i of a run is measured.
func measuredBoot(i int) bool {
	const stride = setupRuns / measuredRuns
	return i%stride == stride/2 && i/stride < measuredRuns
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of the timed part of the run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	role := fs.String("child", "", "internal: run as the spawned rank (setup or run)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, child: *role}
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
		if wl.name == *name {
			o.wl = wl
		}
	}
	switch {
	case o.wl.name == "":
		return o, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	case *seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case *role != "" && *role != "setup" && *role != "run":
		return o, fmt.Errorf("--child must be setup or run")
	}
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.child != "" {
		if err := childMain(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench rank 1:", err)
			os.Exit(1)
		}
		return
	}
	// The environment must not inject faults or scenarios into the worlds
	// of this process or of the ranks it spawns; the lossy workload arms
	// its own drop after set-up.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "GUPCXX_") {
			os.Unsetenv(k)
		}
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.lines {
		fmt.Println(line)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.out.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	lines []string // human-readable lines printed before the JSON
	out   output
}

// run boots setupRuns worlds, measures measuredRuns of them and computes
// the metrics of the run's mode.
func run(o options) (result, error) {
	cpu0 := readCPUTimes()
	var st *tracer
	if o.trace {
		st = newTracer(0)
	}
	var (
		setups []setupTimes
		wr     worldResult
	)
	for i := 0; i < setupRuns; i++ {
		measure := measuredBoot(i)
		res, err := runWorld(o, measure, st)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, res.setup)
		if measure {
			if err := wr.add(res); err != nil {
				return result{}, err
			}
		}
		// Return the closed world's memory to the OS, so every boot
		// starts from the same footprint.
		debug.FreeOSMemory()
		time.Sleep(bootGap)
	}
	host := newHostContext(cpu0, readCPUTimes())

	var res result
	for _, rep := range wr.regions {
		res.out.Attempted += rep.Ops
		res.out.Failed += rep.Failed
	}
	res.out.Correct = res.out.Failed == 0 && res.out.Attempted > 0
	var (
		values map[string]float64
		defs   []metricDef
	)
	if o.trace {
		tracers := append([]*tracer{st}, wr.tracers...)
		values = perLayerValues(wr.regions[0], wr.regions[1], setups, host, o.wl, tracers)
		defs = perLayer
		path := filepath.Join(o.out, "perfbench-trace-"+o.wl.name+".jsonl")
		if err := writeSpans(path, tracers); err != nil {
			return result{}, err
		}
		res.lines = append(res.lines, "spans: "+path)
	} else {
		values = endToEndValues(wr.regions[0], setups)
		defs = endToEnd
	}
	res.out.Metrics = make(map[string]metric, len(defs))
	res.lines = append(res.lines, fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%v %s",
		o.wl.name, o.seed, o.seconds, o.trace, host))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no value (%g)", d.name, v)
		}
		res.out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		shown := fmt.Sprintf("%16.6g", v)
		if o.trace && v == notAvailable {
			shown = fmt.Sprintf("%16s", "n/a")
		}
		res.lines = append(res.lines, fmt.Sprintf("  %-34s %s %s", d.name, shown, d.unit))
	}
	res.lines = append(res.lines, fmt.Sprintf("  correct=%v attempted=%d failed=%d",
		res.out.Correct, res.out.Attempted, res.out.Failed))
	return res, nil
}
