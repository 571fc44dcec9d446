package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/actuator"
	"atm/internal/obs"
)

// spanAgg is one span name's totals: wall time, and self time (wall
// time not covered by child spans).
type spanAgg struct {
	busy, self time.Duration
}

// spanLedger is the traced run's span exporter. It aggregates spans as
// they end instead of storing them: children always end before their
// parent, so a child's duration is credited to its parent's pending
// coverage and the parent's self time is settled when it ends. An
// engine.step span's parent is the ingest span that made its box due,
// a link across requests rather than nesting; it contributes the
// engine wait (step start minus ingest end) instead of coverage.
type spanLedger struct {
	mu        sync.Mutex
	byName    map[string]*spanAgg
	pending   map[string]time.Duration // span id -> child time
	ingestEnd map[string]time.Time     // serve.ingest span id -> end
	waits     []float64                // ms
	total     int
}

func newSpanLedger() *spanLedger {
	l := &spanLedger{pending: map[string]time.Duration{}, ingestEnd: map[string]time.Time{}}
	l.reset()
	return l
}

// reset clears the aggregates (not the in-flight bookkeeping) at the
// start of the measured phases.
func (l *spanLedger) reset() {
	l.mu.Lock()
	l.byName = map[string]*spanAgg{}
	l.waits = nil
	l.total = 0
	l.mu.Unlock()
}

// ExportSpan implements obs.Exporter.
func (l *spanLedger) ExportSpan(s obs.SpanData) {
	d := s.Duration()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	child := l.pending[s.SpanID]
	delete(l.pending, s.SpanID)
	a := l.byName[s.Name]
	if a == nil {
		a = &spanAgg{}
		l.byName[s.Name] = a
	}
	a.busy += d
	a.self += max(d-child, 0)
	switch {
	case s.Name == "serve.ingest":
		l.ingestEnd[s.SpanID] = s.Start.Add(d)
	case s.Name == "engine.step":
		if end, ok := l.ingestEnd[s.ParentID]; ok {
			l.waits = append(l.waits, ms(s.Start.Sub(end)))
		}
	case s.ParentID != "":
		l.pending[s.ParentID] += d
	}
}

func (l *spanLedger) agg(name string) spanAgg {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.byName[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// handlerTimer wraps the service's IngestHandler and times ServeHTTP.
type handlerTimer struct {
	next        http.Handler
	calls, busy atomic.Int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, req)
	h.calls.Add(1)
	h.busy.Add(int64(time.Since(start)))
}

// countingBackend wraps the actuation backend to count and time the
// calls the engine's transactional apply makes through the policy
// rails.
type countingBackend struct {
	actuator.Backend
	sets, setNS, gets, errs atomic.Int64
}

func (b *countingBackend) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	start := time.Now()
	err := b.Backend.SetLimits(ctx, id, l)
	b.setNS.Add(int64(time.Since(start)))
	b.sets.Add(1)
	if err != nil {
		b.errs.Add(1)
	}
	return err
}

func (b *countingBackend) GetLimits(ctx context.Context, id string) (actuator.Limits, error) {
	l, err := b.Backend.GetLimits(ctx, id)
	b.gets.Add(1)
	// A VM's first apply snapshots a group that does not exist yet.
	if err != nil && !errors.Is(err, actuator.ErrNotFound) {
		b.errs.Add(1)
	}
	return l, err
}

func (b *countingBackend) DeleteGroup(ctx context.Context, id string) error {
	err := b.Backend.DeleteGroup(ctx, id)
	if err != nil {
		b.errs.Add(1)
	}
	return err
}

// scrape reads the process registry's Prometheus exposition into a
// series -> value map.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	_ = obs.Default().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	m := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			m[line[:sp]] = v
		}
	}
	return m
}

// sum adds every series of the metric name whose labels contain all
// of the given label pairs (e.g. `stage="actuate"`).
func sum(m map[string]float64, name string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// counters are the cumulative readings a traced run takes at both
// ends of its measured phases: registry series, runtime statistics and
// the benchmark's own wrappers.
type counters struct {
	prom                    map[string]float64
	mem                     runtime.MemStats
	handlerCalls, handlerNS int64
	sets, setNS, gets, errs int64
	eventsLost              uint64
	encodeAlloc             uint64
}

func readCounters(r *run) counters {
	c := counters{prom: scrape()}
	runtime.ReadMemStats(&c.mem)
	c.handlerCalls, c.handlerNS = r.handler.calls.Load(), r.handler.busy.Load()
	if r.backend != nil {
		c.sets, c.setNS = r.backend.sets.Load(), r.backend.setNS.Load()
		c.gets, c.errs = r.backend.gets.Load(), r.backend.errs.Load()
	}
	c.eventsLost = r.lost + r.events.Dropped()
	c.encodeAlloc = r.encodeAlloc
	return c
}

// layerLedger brackets the measured phases of a traced run.
type layerLedger struct{ before, after counters }

func startLedger(r *run) *layerLedger {
	r.spans.reset()
	return &layerLedger{before: readCounters(r)}
}

func (l *layerLedger) stop(r *run) { l.after = readCounters(r) }

func (l *layerLedger) delta(name string, labels ...string) float64 {
	return sum(l.after.prom, name, labels...) - sum(l.before.prom, name, labels...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps the NaN of an empty percentile to 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// layers computes the per-layer metrics of a traced run.
func (r *run) layers(out *outcome) map[string]float64 {
	l := out.ledger
	a, b := &l.after, &l.before
	m := map[string]float64{}

	// serve: the wrapped handler, the serve.ingest span inside it, and
	// the client's view of the same requests.
	ingest := r.spans.agg("serve.ingest")
	handler := secs(a.handlerNS - b.handlerNS)
	var clientS, rttS float64
	for i := r.warm; i < len(r.ops); i++ {
		clientS += r.done[i].Sub(r.due[i]).Seconds()
		rttS += r.done[i].Sub(r.sent[i]).Seconds()
	}
	m["serve.ingest.calls"] = float64(a.handlerCalls - b.handlerCalls)
	m["serve.ingest.busy_s"] = handler
	m["serve.ingest.decode_s"] = handler - ingest.busy.Seconds()
	m["serve.transport_s"] = rttS - handler
	samples := l.delta("atm_state_samples_total")
	// Encoding the next phase's bodies happens between phases and is
	// the generator's, not the service's.
	alloc := (a.mem.TotalAlloc - b.mem.TotalAlloc) - (a.encodeAlloc - b.encodeAlloc)
	m["runtime.alloc_bytes_per_sample"] = ratio(float64(alloc), samples)

	// state: the ingest span has no child spans, so its self time is
	// the store append (plus the response encode that follows it).
	m["state.append.busy_s"] = ingest.self.Seconds()
	m["state.samples"] = samples
	attributed := m["serve.transport_s"] + m["serve.ingest.decode_s"] + m["state.append.busy_s"]
	m["attr.ingest_unattributed_frac"] = ratio(clientS-attributed, clientS)

	// engine
	step := r.spans.agg("engine.step")
	steps := l.delta("atm_engine_steps_total")
	inspected := l.delta("atm_engine_boxes_inspected_total")
	m["engine.passes"] = l.delta("atm_engine_pass_seconds_count")
	m["engine.pass.busy_s"] = l.delta("atm_engine_pass_seconds_sum")
	m["engine.inspected"] = inspected
	m["engine.fired_per_inspected"] = ratio(steps, inspected)
	m["engine.steps"] = steps
	m["engine.step.busy_s"] = step.busy.Seconds()
	m["engine.step.self_s"] = step.self.Seconds()
	r.spans.mu.Lock()
	m["engine.wait_p99_ms"] = orZero(percentile(append([]float64(nil), r.spans.waits...), 0.99))
	r.spans.mu.Unlock()
	evicted := l.delta("atm_engine_evicted_steps_total")
	m["engine.evicted"] = evicted
	m["engine.step_errors"] = l.delta("atm_engine_step_errors_total")
	missed := 0
	evictedKind, errorKind := intern("evicted"), intern("step_error")
	for i := range r.recs {
		if k := r.recs[i].kind; k == evictedKind || k == errorKind {
			missed++
		}
	}
	m["engine.plans_missed_frac"] = ratio(float64(missed), float64(out.stepsDue))

	// core
	research := l.delta("atm_engine_research_total")
	refit := l.delta("atm_engine_refit_total")
	m["core.research"] = research
	m["core.refit"] = refit
	m["core.reuse_frac"] = ratio(refit, research+refit)
	for _, name := range []string{
		"spatial.search", "spatial.cluster", "spatial.stepwise_vif", "spatial.fit_dependents",
		"spatial.refit", "core.temporal_fit", "core.reconstruct", "core.resize", "core.evaluate",
	} {
		m[name+".busy_s"] = r.spans.agg(name).busy.Seconds()
	}
	pairs := l.delta("atm_dtw_pairs_total")
	m["cluster.dtw_pairs"] = pairs
	m["cluster.dtw_pruned_frac"] = ratio(l.delta("atm_dtw_pairs_total", `outcome="pruned"`), pairs)
	m["resize.heap_pops"] = l.delta("atm_resize_heap_pops_total")

	// control and score
	m["control.blends"] = l.delta("atm_control_blend_total")
	m["control.floors"] = l.delta("atm_control_floor_total")
	m["score.mape_mean"] = ratio(l.delta("atm_forecast_mape_sum"), l.delta("atm_forecast_mape_count"))

	// actuator and policy
	actuate := l.delta("atm_stage_seconds_sum", `stage="actuate"`)
	m["actuator.set.calls"] = float64(a.sets - b.sets)
	m["actuator.set.busy_s"] = secs(a.setNS - b.setNS)
	m["actuator.get.calls"] = float64(a.gets - b.gets)
	m["actuator.errors"] = float64(a.errs - b.errs)
	m["core.actuate.busy_s"] = actuate
	m["policy.clamps"] = l.delta("atm_policy_clamps_total")
	m["policy.rejections"] = l.delta("atm_policy_rejections_total")
	// The engine applies a plan outside the step's span context, so
	// actuation is attributed through atm_stage_seconds instead.
	m["attr.step_unattributed_frac"] = ratio(step.self.Seconds()-actuate, step.busy.Seconds())

	// runtime
	m["runtime.gc_pause_s"] = secs(int64(a.mem.PauseTotalNs - b.mem.PauseTotalNs))
	m["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)

	// obs: the service's own span ring overwrites by design; the
	// durable exporters' drops and the event log's losses count.
	r.spans.mu.Lock()
	m["obs.spans"] = float64(r.spans.total)
	r.spans.mu.Unlock()
	m["obs.spans_dropped"] = l.delta("atm_trace_dropped_total") - l.delta("atm_trace_dropped_total", `exporter="ring"`)
	m["obs.events_dropped"] = float64(a.eventsLost - b.eventsLost)

	// generator
	m["gen.late_p99_ms"] = orZero(r.lateP99())
	m["gen.failed_frac"] = ratio(float64(r.failed.Load()), float64(r.attempted.Load()))
	return m
}
