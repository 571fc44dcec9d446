// Command perfbench is the ATM service benchmark. It boots the
// production serve.Service in-process behind a loopback HTTP server,
// drives it with pre-encoded requests from two sender goroutines, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// ledger of a traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload firehose|replan|all \
//	     [--seed N] [--seconds S] [--trace 0|1]
//
// After set-up, a run sends an untimed warm-up that gives every box a
// plan, then rounds of a closed-loop saturation burst of fixed work
// followed by an open-loop slice at the workload's fixed rates (about
// --seconds of open loop in all). The correctness gate then checks the
// store against the accepted ticks and every published plan against a
// synchronous in-process replay. README.md documents the workloads,
// metrics and known limits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_samples_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"plan_fresh_p50_ms", "ms"},
	{"plan_fresh_p99_ms", "ms"},
	{"plan_p50_ms", "ms"},
	{"plan_p99_ms", "ms"},
	{"tickets_after_ratio", "ratio"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics.
var perLayer = []metricDef{
	{"serve.ingest.calls", "count"},
	{"serve.ingest.busy_s", "s"},
	{"serve.ingest.decode_s", "s"},
	{"serve.transport_s", "s"},
	{"runtime.alloc_bytes_per_sample", "B"},
	{"state.append.busy_s", "s"},
	{"state.samples", "count"},
	{"attr.ingest_unattributed_frac", "ratio"},
	{"engine.passes", "count"},
	{"engine.pass.busy_s", "s"},
	{"engine.inspected", "count"},
	{"engine.fired_per_inspected", "ratio"},
	{"engine.steps", "count"},
	{"engine.step.busy_s", "s"},
	{"engine.step.self_s", "s"},
	{"engine.wait_p99_ms", "ms"},
	{"engine.evicted", "count"},
	{"engine.step_errors", "count"},
	{"engine.plans_missed_frac", "ratio"},
	{"attr.step_unattributed_frac", "ratio"},
	{"core.research", "count"},
	{"core.refit", "count"},
	{"core.reuse_frac", "ratio"},
	{"spatial.search.busy_s", "s"},
	{"spatial.cluster.busy_s", "s"},
	{"spatial.stepwise_vif.busy_s", "s"},
	{"spatial.fit_dependents.busy_s", "s"},
	{"spatial.refit.busy_s", "s"},
	{"core.temporal_fit.busy_s", "s"},
	{"core.reconstruct.busy_s", "s"},
	{"core.resize.busy_s", "s"},
	{"core.evaluate.busy_s", "s"},
	{"cluster.dtw_pairs", "count"},
	{"cluster.dtw_pruned_frac", "ratio"},
	{"resize.heap_pops", "count"},
	{"control.blends", "count"},
	{"control.floors", "count"},
	{"score.mape_mean", "ratio"},
	{"actuator.set.calls", "count"},
	{"actuator.set.busy_s", "s"},
	{"actuator.get.calls", "count"},
	{"actuator.errors", "count"},
	{"core.actuate.busy_s", "s"},
	{"policy.clamps", "count"},
	{"policy.rejections", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"obs.spans", "count"},
	{"obs.spans_dropped", "count"},
	{"obs.events_dropped", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"gen.failed_frac", "ratio"},
}

// Limits on the generator's own delay (gen.late_p99_ms: p99 over the
// open-loop operations of the time from when one could have been sent
// to when it was): a run over its limit did not offer the workload's
// schedule and is rejected. The senders share the process and its two
// cores with the service, so a busy engine delays their wake-ups;
// latencies are timed from due times either way, so such a delay
// inflates them rather than hiding anything. Untraced runs, which give
// the end-to-end metrics, are held to a limit near their measured
// delays; traced runs, slowed by span export, to a looser one.
const (
	lateLimitMS       = 30.0
	lateLimitTracedMS = 100.0
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is one workload run's measurements.
type report struct {
	correct           bool
	problems          []string
	attempted, failed int64
	metrics           map[string]float64
	satRate           float64
}

// runWorkload prepares, executes and (unless cfg.noVerify) verifies
// one run.
func runWorkload(ctx context.Context, cfg runConfig) (*report, error) {
	r, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	out, err := r.execute(ctx)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: r.attempted.Load(), failed: r.failed.Load()}
	if rep.metrics, err = r.metrics(out); err != nil {
		return nil, err
	}
	rep.satRate = rep.metrics["ingest_samples_per_s"]
	if cfg.traced {
		rep.metrics = r.layers(out)
		if d := rep.metrics["obs.spans_dropped"] + rep.metrics["obs.events_dropped"]; d > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("traced run lost %.0f spans or events", d))
		}
	}
	rep.problems = append(rep.problems, r.failures...)
	if r.lost > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("event log overwrote %d events before they were read", r.lost))
	}
	limit := lateLimitMS
	if cfg.traced {
		limit = lateLimitTracedMS
	}
	late := r.lateP99()
	logf("generator delay p99 %.2f ms", late)
	if late > limit {
		rep.problems = append(rep.problems, fmt.Sprintf("generator fell behind: delay p99 %.1f ms > %.0f ms", late, limit))
	}
	if !cfg.noVerify {
		logf("verifying")
		if err := r.verify(ctx, out); err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
		logf("verified")
	}
	rep.correct = len(rep.problems) == 0 && rep.failed == 0
	return rep, nil
}

// measure runs a workload untraced (with several set-ups, for a
// median set-up time) or traced. The tracing overhead compares the
// traced run's burst rate with an untraced one: baseRate when the
// caller has just measured it, otherwise an untraced run of the warm-up
// and bursts alone, in the same process and not verified.
func measure(ctx context.Context, sp *spec, seed int64, seconds float64, traced bool, baseRate float64) (*report, error) {
	if !traced {
		return runWorkload(ctx, runConfig{spec: sp, seed: seed, seconds: seconds, setups: 5})
	}
	var base *report
	if baseRate == 0 {
		var err error
		base, err = runWorkload(ctx, runConfig{spec: sp, seed: seed, seconds: seconds, setups: 1,
			burstsOnly: true, noVerify: true})
		if err != nil {
			return nil, err
		}
		baseRate = base.satRate
	}
	rep, err := runWorkload(ctx, runConfig{spec: sp, seed: seed, seconds: seconds, setups: 1, traced: true})
	if err != nil {
		return nil, err
	}
	rep.metrics["obs.trace_overhead_frac"] = ratio(baseRate, rep.satRate) - 1
	if base != nil {
		rep.problems = append(base.problems, rep.problems...)
		rep.correct = rep.correct && base.correct
		rep.attempted += base.attempted
		rep.failed += base.failed
	}
	return rep, nil
}

func resultOf(rep *report, defs []metricDef, prefix string, into *result) error {
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || v != v {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		into.Metrics[prefix+d.name] = value{Value: v, Unit: d.unit}
	}
	into.Correct = into.Correct && rep.correct
	into.Attempted += rep.attempted
	into.Failed += rep.failed
	return nil
}

// printTable writes a human-readable metric table.
func printTable(w io.Writer, title string, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", rep.attempted, rep.failed, rep.correct)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

func main() {
	workload := flag.String("workload", "", "firehose, replan, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "open-loop length in seconds (stretched per workload)")
	trace := flag.Int("trace", 0, "1 prints the traced run's per-layer ledger instead of end-to-end metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var run []*spec
	if *workload == "all" {
		run = specs
	} else {
		sp, err := specByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		run = []*spec{sp}
	}
	ctx := context.Background()
	res := result{Correct: true, Metrics: map[string]value{}}
	for _, sp := range run {
		modes := []bool{*trace == 1}
		if *workload == "all" {
			modes = []bool{false, true}
		}
		baseRate := 0.0
		for _, traced := range modes {
			rep, err := measure(ctx, sp, *seed, *seconds, traced, baseRate)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
			defs, title := endToEnd, sp.name+" end to end"
			if traced {
				defs, title = perLayer, sp.name+" per layer (traced run)"
			}
			baseRate = rep.satRate
			printTable(os.Stdout, title, rep, defs)
			prefix := ""
			if *workload == "all" {
				prefix = sp.name + "/"
			}
			if err := resultOf(rep, defs, prefix, &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
