// Command perfbench measures the seqstream storage node end to end on
// three workloads and prints every metric by name and unit, after
// checking the node's outputs. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one named figure of a run.
type metric struct {
	name string
	unit string
}

// endToEnd lists the figures a user of the node sees, reported by
// every untraced run. Rates and latencies of the sim workloads are in
// virtual time; CPU, heap and set-up time are the process's own.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"read_mb_s", "MB/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the figures of single layers, reported by every
// traced run. Each is measured on the workload whose name it starts
// with: the one where its layer does the work.
var perLayer = []metric{
	{"paced.gen.lag_p99_ms", "ms"},
	{"paced.netserve.go_us_p50", "us"},
	{"paced.netserve.self_ms_p50", "ms"},
	{"paced.core.done_ms_p50", "ms"},
	{"paced.core.done_ms_p99", "ms"},
	{"paced.core.hit_ratio", "ratio"},
	{"paced.ingest.flushes_per_mb", "1/MB"},
	{"paced.ingest.forced_flush_frac", "ratio"},
	{"paced.bufpool.miss_ratio", "ratio"},
	{"paced.bufpool.peak_out_mb", "MB"},
	{"paced.flight.events_per_op", "ratio"},
	{"paced.health.tick_us_p50", "us"},
	{"paced.health.tick_us_p99", "us"},
	{"paced.health.events_lost", "count"},
	{"paced.slo.on_time_frac", "ratio"},
	{"paced.proc.cpu_us_per_op", "us"},
	{"paced.trace.cpu_overhead_us_per_op", "us"},
	{"paced.trace.read_p50_overhead_ms", "ms"},
	{"crowded.core.submit_us_p50", "us"},
	{"crowded.core.submit_us_p99", "us"},
	{"crowded.core.fetch_per_read_byte", "ratio"},
	{"crowded.core.evictions_per_fetch", "ratio"},
	{"crowded.core.dispatched_mean", "count"},
	{"crowded.core.candidates_mean", "count"},
	{"crowded.dev.reads_per_op", "ratio"},
	{"crowded.dev.read_ms_p50", "ms"},
	{"crowded.dev.read_ms_p99", "ms"},
	{"crowded.dev.inflight_mean", "count"},
	{"crowded.disk.busy_frac", "ratio"},
	{"crowded.disk.seek_ms_per_mb", "ms/MB"},
	{"crowded.disk.prefetch_eff", "ratio"},
	{"crowded.controller.cache_hit_ratio", "ratio"},
	{"crowded.proc.cpu_us_per_op", "us"},
	{"crowded.trace.cpu_overhead_us_per_op", "us"},
	{"straggler.core.steered_frac", "ratio"},
	{"straggler.core.spec_per_fetch", "ratio"},
	{"straggler.core.spec_win_ratio", "ratio"},
	{"straggler.dev.read_ms_p50", "ms"},
	{"straggler.dev.read_ms_p99", "ms"},
	{"straggler.proc.cpu_us_per_op", "us"},
	{"straggler.trace.cpu_overhead_us_per_op", "us"},
}

// workloads runs each workload by name; trace asks for its per-layer
// figures as well.
var workloads = []struct {
	name string
	run  func(seed uint64, window time.Duration, trace bool) (*result, error)
}{
	{"paced", func(seed uint64, window time.Duration, trace bool) (*result, error) {
		return runPaced(defaultPaced(), seed, window, trace)
	}},
	{"crowded", func(seed uint64, window time.Duration, trace bool) (*result, error) {
		return runSim(crowdedConfig(), seed, window, trace)
	}},
	{"straggler", func(seed uint64, window time.Duration, trace bool) (*result, error) {
		return runSim(stragglerConfig(), seed, window, trace)
	}},
}

// result is what a workload run produced.
type result struct {
	attempted int64
	failed    int64
	// problems lists every check that failed; the run is correct when
	// it is empty and no operation failed.
	problems []string
	values   map[string]float64
	pcts     *pctSet
	// slotP99 is each slot's read p99 in ms (paced), printed with the
	// context so a noisy stretch of the host shows where it happened.
	slotP99 []float64
}

func newResult() *result {
	return &result{values: make(map[string]float64), pcts: newPctSet()}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paced, crowded or straggler (a traced run measures all three)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	var runOne func(seed uint64, window time.Duration, trace bool) (*result, error)
	for _, w := range workloads {
		if w.name == o.workload {
			runOne = w.run
		}
	}
	if runOne == nil {
		return fmt.Errorf("unknown workload %q (want paced, crowded or straggler)", o.workload)
	}
	// All load comes from this one process, on one proc. On a small
	// shared VM a second proc mostly adds cross-CPU wake-ups, whose
	// delay is set by the hypervisor's steal, not by the program: in
	// one quiet hour, two procs put the paced p99 anywhere from 5 to
	// 15 ms and one proc kept it within 1.6–2.6 ms.
	runtime.GOMAXPROCS(1)

	window := time.Duration(o.seconds) * time.Second
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o.seed, window)
	} else {
		res, err = runOne(o.seed, window, false)
	}
	if err != nil {
		return err
	}
	if res.pcts.err != nil {
		return fmt.Errorf("workload too small for its percentiles: %w", res.pcts.err)
	}
	return report(os.Stdout, o, res)
}

// report prints a context line (stamp, sample counts, failed checks)
// and then, as the last line, the result object.
func report(w *os.File, o options, res *result) error {
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	metrics := make(map[string]map[string]any, len(list))
	for _, m := range list {
		v, ok := res.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	ctx, err := json.Marshal(map[string]any{
		"stamp":            newStamp(o.workload, o.seed, o.seconds, o.trace),
		"samples":          res.pcts.n,
		"problems":         res.problems,
		"slot_read_p99_ms": res.slotP99,
	})
	if err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0 && res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", ctx, out)
	return err
}
