package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/actuator"
	"atm/internal/obs"
	"atm/internal/serve"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	spec    *spec
	seed    int64
	seconds float64
	traced  bool
	setups  int
	// burstsOnly drops the open-loop slices: the saturation bursts run
	// back to back (the traced mode's baseline, which only supplies the
	// untraced burst rate).
	burstsOnly bool
	// noVerify skips the correctness gate (the traced mode's baseline).
	noVerify bool
}

// round is one saturation burst and the open-loop slice after it, as
// op ranges within ops, and the slice's plan GETs as a range within
// reads.
type round struct {
	burst, slice, reads [2]int
	// sliceGap is the slice's interval between ingest ops.
	sliceGap time.Duration
}

// run is the state of one workload run against one service instance.
type run struct {
	cfg   runConfig
	fleet *fleet
	need  func(step int) int

	ops      []ingestOp // warm-up, then each round's burst and slice, in send order
	warm     int        // ops[:warm] are warm-up
	rounds   []round
	register [][]byte
	reads    []int // open-loop plan GET targets (box indices)

	// Per ingest op: when it was due, sent and answered.
	due, sent, done []time.Time
	ok              []bool          // the op's ticks were all accepted
	prevOp          []int           // the previous op of the same box chunk, or -1
	doneCh          []chan struct{} // closed once the op is answered
	readLat         []time.Duration
	// late is the generator's own delay for every open-loop operation:
	// from when it could have been sent (due, a sender free, and the
	// box chunk's previous op answered) until it was.
	late   []time.Duration
	lateMu sync.Mutex
	// encodeAlloc is what encoding bodies allocated during the measured
	// phases, which the per-layer allocation rate leaves out.
	encodeAlloc uint64

	// dueOp maps box b's step s to the op that completed its window.
	dueOp    []int32
	maxSteps int

	failed, attempted atomic.Int64
	failures          []string
	failMu            sync.Mutex

	svc    *serve.Service
	srv    *httptest.Server
	client *http.Client
	// events is the service's event log, sized for one phase and
	// drained into recs after each; drained counts the events taken.
	events    *obs.EventLog
	recs      []stepRec
	drained   uint64
	lost      uint64 // events overwritten before a drain
	applyErr  string // the first actuation failure's error
	eventsCap int
	backend   *countingBackend
	spans     *spanLedger
	handler   *handlerTimer
}

// logf reports progress on standard error with the time since the
// process started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

var processStart = time.Now()

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

// prepare generates the fleet, lays out every request and indexes
// which op makes each step due. None of it is timed.
func prepare(cfg runConfig) (*run, error) {
	s := cfg.spec
	c := s.engine().Core
	r := &run{cfg: cfg}
	r.need = func(step int) int { return c.TrainWindows + (step+1)*c.Horizon }

	// A slice is a whole number of fleet rounds (batchTicks ticks for
	// every box), so every box has received the same ticks whenever a
	// phase ends.
	sliceSec := cfg.seconds * s.openScale / float64(s.rounds)
	roundSamples := float64(s.boxes * s.batchTicks * paperVMs * 2)
	sliceTicks := max(1, int(math.Round(s.ingestRate*sliceSec/roundSamples))) * s.batchTicks
	if cfg.burstsOnly {
		sliceTicks = 0
	}
	ticks := s.warmTicks + s.rounds*(s.burstTicks+sliceTicks)
	maxLead := 0
	if s.stagger {
		maxLead = c.Horizon - 1
	}
	f, err := s.fleet(cfg.seed, ticks+maxLead, s.warmTicks, s.boxes)
	if err != nil {
		return nil, err
	}
	if s.stagger {
		for b := range f.lead {
			f.lead[b] = b * c.Horizon / len(f.lead)
		}
	}
	r.fleet = f
	r.ops = s.plan(f, -maxLead, s.warmTicks)
	r.warm = len(r.ops)
	gap := time.Duration(float64(time.Second) * float64(s.samplesPerOp(f.vms)) / s.ingestRate)
	for k, t := 0, s.warmTicks; k < s.rounds; k++ {
		var rd round
		rd.burst[0] = len(r.ops)
		r.ops = append(r.ops, s.plan(f, t, t+s.burstTicks)...)
		rd.burst[1], rd.slice[0] = len(r.ops), len(r.ops)
		t += s.burstTicks
		r.ops = append(r.ops, s.plan(f, t, t+sliceTicks)...)
		rd.slice[1] = len(r.ops)
		t += sliceTicks
		rd.sliceGap = gap
		dur := time.Duration(rd.slice[1]-rd.slice[0]) * gap
		nr := int(math.Round(s.readRate * dur.Seconds()))
		rd.reads = [2]int{len(r.reads), len(r.reads) + nr}
		r.reads = append(r.reads, make([]int, nr)...)
		r.rounds = append(r.rounds, rd)
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	for i := range r.reads {
		r.reads[i] = rng.Intn(len(f.metas))
	}
	r.readLat = make([]time.Duration, len(r.reads))
	if r.register, err = registerBodies(s, f); err != nil {
		return nil, err
	}
	n := len(r.ops)
	r.due, r.sent, r.done = make([]time.Time, n), make([]time.Time, n), make([]time.Time, n)
	r.ok = make([]bool, n)

	// An agent sends a box's ticks in order: an op waits for the
	// previous op of its chunk to be answered.
	r.prevOp = make([]int, n)
	r.doneCh = make([]chan struct{}, n)
	last := map[int]int{}
	for i := range r.ops {
		r.doneCh[i] = make(chan struct{})
		r.prevOp[i] = -1
		if p, ok := last[r.ops[i].chunk]; ok {
			r.prevOp[i] = p
		}
		last[r.ops[i].chunk] = i
	}

	r.maxSteps = (ticks+maxLead)/c.Horizon + 1
	r.dueOp = make([]int32, len(f.metas)*r.maxSteps)
	for i := range r.dueOp {
		r.dueOp[i] = -1
	}
	for i := range r.ops {
		for _, e := range r.ops[i].entries {
			for st := 0; r.need(st) <= e.t1; st++ {
				if r.need(st) > e.t0 {
					r.dueOp[e.b*r.maxSteps+st] = int32(i)
				}
			}
		}
	}
	// The event log holds the largest phase's step outcomes; the margin
	// covers actuation failures.
	phaseSteps := r.stepsDue(r.warm)
	for _, rd := range r.rounds {
		phaseSteps = max(phaseSteps, r.stepsDue(rd.burst[1])-r.stepsDue(rd.burst[0]),
			r.stepsDue(rd.slice[1])-r.stepsDue(rd.slice[0]))
	}
	r.eventsCap = phaseSteps + 1024
	return r, nil
}

// where places op i: its round (-1 for warm-up) and whether it belongs
// to the round's open-loop slice rather than its burst.
func (r *run) where(i int) (k int, open bool) {
	k = sort.Search(len(r.rounds), func(k int) bool { return r.rounds[k].slice[1] > i })
	if i < r.warm || k == len(r.rounds) {
		return -1, false
	}
	return k, i >= r.rounds[k].slice[0]
}

// stepsDue counts the steps made due by ops[:n].
func (r *run) stepsDue(n int) int {
	k := 0
	for _, op := range r.dueOp {
		if op >= 0 && int(op) < n {
			k++
		}
	}
	return k
}

// boot builds the service, starts the engine, mounts it on a loopback
// server behind atmd's route table and registers the fleet over HTTP.
// The returned duration is the set-up time.
func (r *run) boot() (time.Duration, error) {
	start := time.Now()
	ecfg := r.cfg.spec.engine()
	if r.cfg.spec.actuate {
		r.backend = &countingBackend{Backend: actuator.NewRegistry()}
		ecfg.Backend = r.backend
		ecfg.Policy = clampPolicy()
	}
	r.events = obs.NewEventLog(r.eventsCap)
	r.recs, r.drained = r.recs[:0], 0
	cfg := serve.Config{History: r.cfg.spec.history(), Engine: ecfg, Events: r.events}
	if r.cfg.traced {
		r.spans = newSpanLedger()
		cfg.Engine.TraceStages = true
		cfg.SpanExporters = []obs.Exporter{r.spans}
	}
	svc, err := serve.New(cfg)
	if err != nil {
		return 0, err
	}
	svc.Start()
	r.svc = svc
	var ingest http.Handler = svc.IngestHandler()
	if r.cfg.traced {
		r.handler = &handlerTimer{next: ingest}
		ingest = r.handler
	}
	metrics := obs.Default()
	mux := http.NewServeMux()
	mux.Handle("/v1/boxes/", metrics.InstrumentHandler("/v1/boxes/:id", svc.Handler()))
	mux.Handle("/v1/ingest", metrics.InstrumentHandler("/v1/ingest", ingest))
	mux.Handle("/readyz", svc.ReadyzHandler())
	r.srv = httptest.NewServer(mux)
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}}
	for _, body := range r.register {
		resp, err := r.client.Post(r.srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("register: %w", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(b, []byte(`{"accepted":0,"failed":0,`)) {
			return 0, fmt.Errorf("register: %d %s", resp.StatusCode, b)
		}
	}
	for {
		resp, err := r.client.Get(r.srv.URL + "/readyz")
		if err != nil {
			return 0, fmt.Errorf("readyz: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// shutdown stops the HTTP server, drains the engine and closes idle
// client connections.
func (r *run) shutdown() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.svc != nil {
		r.svc.Drain()
	}
	r.srv, r.client, r.svc, r.handler = nil, nil, nil, nil
}

// maxSetups caps the set-up repetitions of one run.
const maxSetups = 200

// senders is the number of client goroutines and connections: one per
// core of the reference machine, so the generator cannot outnumber the
// server's CPUs.
const senders = 2

// phase is one traffic pattern driven by the senders: ingest ops
// ops[from:to], closed loop (gap 0, each sender sends as soon as its
// previous request returns) or open loop (op i due at start + i*gap),
// and plan GETs reads[readFrom:readTo] due at start + k*readGap.
type phase struct {
	from, to         int
	gap              time.Duration
	readFrom, readTo int
	readGap          time.Duration
}

// drive runs a phase to completion and returns its start time.
func (r *run) drive(p phase) time.Time {
	start := time.Now()
	var mu sync.Mutex
	next, nextRead := p.from, p.readFrom
	// take hands out the earliest-due operation: a read once its due
	// time comes, otherwise the next ingest op. Closed-loop ingest ops
	// are due immediately.
	take := func() (ingest bool, idx int, due time.Time, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		var readDue, ingestDue time.Time
		haveRead, haveIngest := nextRead < p.readTo, next < p.to
		if haveRead {
			readDue = start.Add(time.Duration(nextRead-p.readFrom) * p.readGap)
		}
		if haveIngest {
			ingestDue = start.Add(time.Duration(next-p.from) * p.gap)
			if p.gap == 0 {
				ingestDue = time.Now()
			}
		}
		switch {
		case haveRead && (!haveIngest || readDue.Before(ingestDue)):
			nextRead++
			return false, nextRead - 1, readDue, true
		case haveIngest:
			next++
			return true, next - 1, ingestDue, true
		}
		return false, 0, time.Time{}, false
	}
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				ingest, idx, due, ok := take()
				if !ok {
					return
				}
				// ready is when the op could have been sent: due, with a
				// sender free and its box chunk's previous op answered.
				ready := time.Now()
				if ready.Before(due) {
					time.Sleep(due.Sub(ready))
					ready = due
				}
				if ingest {
					if prev := r.prevOp[idx]; prev >= 0 {
						<-r.doneCh[prev]
						if d := r.done[prev]; d.After(ready) {
							ready = d
						}
					}
				}
				if p.gap > 0 || !ingest {
					r.lateMu.Lock()
					r.late = append(r.late, time.Since(ready))
					r.lateMu.Unlock()
				}
				if ingest {
					r.sendIngest(idx, due, &buf)
				} else {
					r.sendRead(idx, due, &buf)
				}
			}
		}()
	}
	wg.Wait()
	return start
}

func (r *run) sendIngest(i int, due time.Time, buf *bytes.Buffer) {
	defer close(r.doneCh[i])
	o := &r.ops[i]
	r.attempted.Add(1)
	req, err := http.NewRequest(http.MethodPost, r.srv.URL+"/v1/ingest", bytes.NewReader(o.body))
	if err != nil {
		r.fail("ingest op %d: %v", i, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	r.due[i] = due
	r.sent[i] = time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		r.done[i] = time.Now()
		r.fail("ingest op %d: %v", i, err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.done[i] = time.Now()
	switch {
	case err != nil:
		r.fail("ingest op %d: read: %v", i, err)
	case resp.StatusCode != http.StatusOK:
		r.fail("ingest op %d: status %d: %.200s", i, resp.StatusCode, buf.Bytes())
	case !bytes.HasPrefix(buf.Bytes(), o.want):
		r.fail("ingest op %d: want %s..., got %.200s", i, o.want, buf.Bytes())
	default:
		r.ok[i] = true
	}
}

func (r *run) sendRead(k int, due time.Time, buf *bytes.Buffer) {
	id := r.fleet.metas[r.reads[k]].ID
	r.attempted.Add(1)
	resp, err := r.client.Get(r.srv.URL + "/v1/boxes/" + id + "/plan")
	if err != nil {
		r.readLat[k] = time.Since(due)
		r.fail("plan %s: %v", id, err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.readLat[k] = time.Since(due)
	switch {
	case err != nil:
		r.fail("plan %s: read: %v", id, err)
	case resp.StatusCode != http.StatusOK:
		r.fail("plan %s: status %d: %.200s", id, resp.StatusCode, buf.Bytes())
	case !bytes.HasPrefix(buf.Bytes(), []byte(`{"box":"`+id+`"`)):
		r.fail("plan %s: got %.200s", id, buf.Bytes())
	}
}

// waitSteps blocks until the event log has seen want step outcomes, or
// the deadline passes.
func (r *run) waitSteps(want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for r.events.Total() < uint64(want) {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine published %d of %d due step outcomes within %v",
				r.events.Total(), want, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// outcome is what a run measured.
type outcome struct {
	setup []float64 // seconds per boot
	// Per saturation burst: start, last publish of a step its ops made
	// due, and samples sent.
	burstStart, burstEnd []time.Time
	burstSamples         []int
	// live is what the service published (or liveErr why the store
	// disagrees with the accepted ticks), read before it is shut down.
	live       snapshot
	liveErr    error
	heapLiveMB float64
	stepsDue   int
	ledger     *layerLedger
}

// encodePhase builds the bodies of ops[from:to] and accounts for what
// encoding allocated.
func (r *run) encodePhase(from, to int) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := encode(r.fleet, r.ops[from:to])
	runtime.ReadMemStats(&m1)
	r.encodeAlloc += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// sendPhase encodes and drives a phase, waits until every step its
// ops made due is published, and releases its bodies. It returns the
// phase's start time.
func (r *run) sendPhase(p phase, limit time.Duration) (time.Time, error) {
	if err := r.encodePhase(p.from, p.to); err != nil {
		return time.Time{}, err
	}
	if p.gap == 0 {
		// A closed-loop phase is timed as a whole: starting it from a
		// freshly collected heap gives it the same collections in every
		// run, wherever the previous phase left the collector.
		runtime.GC()
	}
	start := r.drive(p)
	err := r.waitSteps(r.stepsDue(p.to), limit)
	for i := p.from; i < p.to; i++ {
		r.ops[i].body = nil
	}
	if err == nil {
		err = r.drain()
	}
	return start, err
}

// drain moves the events published since the last drain from the
// service's log into recs, counting any the ring overwrote first.
func (r *run) drain() error {
	total := r.events.Total()
	n := total - r.drained
	if n > uint64(r.eventsCap) {
		r.lost += n - uint64(r.eventsCap)
		n = uint64(r.eventsCap)
	}
	evs := r.events.Tail(int(n), "")
	for i := range evs {
		if evs[i].Type == "apply_error" && r.applyErr == "" {
			r.applyErr = evs[i].Err
		}
	}
	var err error
	r.recs, err = compact(r.recs, evs, r.fleet.index)
	r.drained = total
	return err
}

// execute boots the service (setups times; all but the last are torn
// down), runs the warm-up and the measured rounds, collects the run's
// measurements and shuts the service down.
func (r *run) execute(ctx context.Context) (*outcome, error) {
	out := &outcome{stepsDue: r.stepsDue(len(r.ops))}
	// Set up at least cfg.setups times and, when set-up is quick, until
	// a second of set-up has been measured, so the median rests on
	// enough repetitions; every instance but the last is torn down.
	var spent time.Duration
	for i := 0; i < r.cfg.setups || (r.cfg.setups > 1 && spent < time.Second && i < maxSetups); i++ {
		if i > 0 {
			r.shutdown()
			runtime.GC()
		}
		d, err := r.boot()
		if err != nil {
			return nil, err
		}
		spent += d
		out.setup = append(out.setup, d.Seconds())
	}
	limit := time.Duration(60+r.cfg.seconds) * time.Second

	logf("%s: set up %d times; warm-up: %d ops", r.cfg.spec.name, len(out.setup), r.warm)
	if _, err := r.sendPhase(phase{from: 0, to: r.warm}, limit); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.late = r.late[:0]
	r.encodeAlloc = 0

	var ledger *layerLedger
	if r.cfg.traced {
		ledger = startLedger(r)
	}
	s := r.cfg.spec
	readGap := time.Duration(float64(time.Second) / s.readRate)
	logf("%d rounds: %d burst ops, %d open-loop ops, %d reads", len(r.rounds),
		r.rounds[0].burst[1]-r.rounds[0].burst[0], r.rounds[0].slice[1]-r.rounds[0].slice[0],
		r.rounds[0].reads[1]-r.rounds[0].reads[0])
	for _, rd := range r.rounds {
		start, err := r.sendPhase(phase{from: rd.burst[0], to: rd.burst[1]}, limit)
		if err != nil {
			return nil, fmt.Errorf("saturation: %w", err)
		}
		n := 0
		for i := rd.burst[0]; i < rd.burst[1]; i++ {
			n += r.ops[i].samples(r.fleet.vms)
		}
		out.burstStart = append(out.burstStart, start)
		out.burstSamples = append(out.burstSamples, n)
		if rd.slice[0] == rd.slice[1] {
			continue
		}
		if _, err := r.sendPhase(phase{from: rd.slice[0], to: rd.slice[1], gap: rd.sliceGap,
			readFrom: rd.reads[0], readTo: rd.reads[1], readGap: readGap}, limit); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}
	if ledger != nil {
		ledger.stop(r)
		out.ledger = ledger
	}
	logf("measured")
	out.live, out.liveErr = r.published(out)
	// The service's live heap: the heap with the service held, less the
	// heap once it is shut down and released. What the benchmark holds
	// (the fleet, its bookkeeping and the snapshot just taken) is in
	// both readings and so not counted.
	held := liveHeap()
	r.shutdown()
	released := liveHeap()
	out.heapLiveMB = float64(held-released) / (1 << 20)
	return out, nil
}

// liveHeap collects until the live heap stops shrinking (goroutines
// of a server just shut down may still hold it for a moment) and
// returns it in bytes.
func liveHeap() int64 {
	var ms runtime.MemStats
	prev := int64(-1)
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		h := int64(ms.HeapAlloc)
		if prev >= 0 && h > prev-(1<<20) {
			return h
		}
		prev = h
		time.Sleep(10 * time.Millisecond)
	}
	return prev
}

// percentile returns the q-quantile (0..1) of xs by nearest rank,
// sorting xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logTail reports a latency distribution's upper percentiles.
func logTail(name string, xs []float64) {
	logf("%s n=%d p90 %.2f p95 %.2f p99 %.2f max %.2f ms", name, len(xs),
		percentile(xs, 0.9), percentile(xs, 0.95), percentile(xs, 0.99), percentile(xs, 1))
}

// lateP99 is the p99 of the generator's own delay over the open-loop
// operations, in ms (NaN when there were none).
func (r *run) lateP99() float64 {
	var late []float64
	for _, d := range r.late {
		late = append(late, ms(d))
	}
	return percentile(late, 0.99)
}

// metrics turns a run's measurements into the end-to-end metrics.
func (r *run) metrics(out *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	m["setup_s"] = percentile(append([]float64(nil), out.setup...), 0.5)

	var ingest []float64
	for _, rd := range r.rounds {
		for i := rd.slice[0]; i < rd.slice[1]; i++ {
			ingest = append(ingest, ms(r.done[i].Sub(r.due[i])))
		}
	}
	m["ingest_p50_ms"] = percentile(ingest, 0.5)
	m["ingest_p99_ms"] = percentile(ingest, 0.99)
	logTail("ingest", ingest)

	var reads []float64
	for _, d := range r.readLat {
		reads = append(reads, ms(d))
	}
	m["plan_p50_ms"] = percentile(reads, 0.5)
	m["plan_p99_ms"] = percentile(reads, 0.99)

	var fresh []float64
	var before, after float64
	out.burstEnd = append([]time.Time(nil), out.burstStart...)
	plan := intern("plan")
	for i := range r.recs {
		rec := &r.recs[i]
		if rec.kind != plan {
			continue
		}
		before += float64(rec.ticketsBefore)
		after += float64(rec.ticketsAfter)
		op := -1
		if int(rec.step) < r.maxSteps {
			op = int(r.dueOp[int(rec.box)*r.maxSteps+int(rec.step)])
		}
		if op < 0 {
			return nil, fmt.Errorf("plan event for box %d step %d that no op made due", rec.box, rec.step)
		}
		at := time.Unix(0, rec.at)
		switch k, open := r.where(op); {
		case open:
			fresh = append(fresh, ms(at.Sub(r.due[op])))
		case k >= 0 && at.After(out.burstEnd[k]):
			out.burstEnd[k] = at
		}
	}
	logTail("fresh", fresh)
	logTail("reads", reads)
	m["plan_fresh_p50_ms"] = percentile(fresh, 0.5)
	m["plan_fresh_p99_ms"] = percentile(fresh, 0.99)
	// The rate over all bursts together: each burst's collections
	// depend on how its allocations fall against the collector's
	// cycle, and the sum over the run evens that out.
	var rates []float64
	var samples, seconds float64
	for k := range out.burstStart {
		d := out.burstEnd[k].Sub(out.burstStart[k]).Seconds()
		rates = append(rates, float64(out.burstSamples[k])/d)
		samples += float64(out.burstSamples[k])
		seconds += d
	}
	logf("burst rates %.0f samples/s", rates)
	m["ingest_samples_per_s"] = samples / seconds
	if before == 0 {
		return nil, errors.New("no tickets before resizing: tickets_after_ratio undefined")
	}
	m["tickets_after_ratio"] = after / before
	m["heap_live_mb"] = out.heapLiveMB
	return m, nil
}
