package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"atm/internal/actuator/policy"
	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/predict"
	"atm/internal/serve"
	"atm/internal/spatial"
	"atm/internal/state"
	"atm/internal/trace"
)

// spec is one workload: the fleet it streams, the service
// configuration it boots, and the shape and pacing of its traffic.
type spec struct {
	name string
	// boxes is the fleet size; fleet builds the workload's inputs from
	// the seed: ticks per box, of which the first warm are warm-up.
	boxes int
	fleet func(seed int64, ticks, warm, boxes int) (*fleet, error)
	// engine returns the service's engine configuration (no tracer,
	// no event log: the run adds those).
	engine func() engine.Config
	// actuate wires an in-memory registry backend behind clamp-only
	// policy rails.
	actuate bool
	// stagger spreads the boxes' window boundaries evenly over a
	// horizon, as boxes brought up at different times have them, instead
	// of completing every box's window on the same tick.
	stagger bool
	// batchBoxes × batchTicks is the shape of one POST /v1/ingest body.
	batchBoxes, batchTicks int
	// warmTicks per box are sent closed loop before anything is timed:
	// at least the store's retention, so every measured phase runs
	// against full rings and every box already has a plan.
	warmTicks int
	// The measured part of a run is rounds rounds, each a saturation
	// burst of burstTicks ticks per box sent closed loop (timed until
	// the last plan it made due is published) followed by an open-loop
	// slice at the fixed rates. Interleaving spreads both measurements
	// over the whole run, so a change in the host's speed lasting
	// seconds weighs on every run's bursts and slices alike.
	rounds, burstTicks int
	// ingestRate is the open loop's fixed rate in samples/s; readRate
	// its fixed rate of plan GETs per second.
	ingestRate, readRate float64
	// openScale stretches the open loop to openScale × --seconds where
	// the workload needs longer to collect a thousand samples of its
	// slowest metric.
	openScale float64
}

// History follows atmd's default: two full pipeline windows.
func (s *spec) history() int {
	c := s.engine().Core
	return 2 * (c.TrainWindows + c.Horizon)
}

// samplesPerOp is the number of samples one full ingest body carries
// for a box of vms VMs (one sample per VM per resource per tick).
func (s *spec) samplesPerOp(vms int) int { return s.batchBoxes * s.batchTicks * vms * 2 }

// Paper fleet shape: 6160 boxes × 13 VMs = 80,080 VMs.
const (
	paperBoxes = 6160
	paperVMs   = 13
)

// cheapCore is the firehose pipeline: CBC signature search and a
// seasonal-naive forecast on an 8-sample day, so serve, state and
// engine scheduling carry the cost and core carries almost none.
func cheapCore() engine.Config {
	spd := 8
	return engine.Config{
		Core: core.Config{
			Spatial:      spatial.Config{Method: spatial.MethodCBC},
			Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
			TrainWindows: 2 * spd,
			Horizon:      spd / 2,
			Threshold:    0.6,
			Epsilon:      0.1,
			Degraded:     true,
		},
		SamplesPerDay: spd,
	}
}

// productionCore is atmd -serve's default pipeline (DTW search, MLP
// forecast, train 64, horizon 32, 32 samples a day, threshold 0.6,
// epsilon 0.1) with -reuse and -control.
func productionCore() engine.Config {
	return engine.Config{
		Core: core.Config{
			TrainWindows: 64,
			Horizon:      32,
			Threshold:    0.6,
			Epsilon:      0.1,
			Degraded:     true,
			Reuse:        core.ReusePolicy{Enabled: true},
		},
		SamplesPerDay: 32,
		Control:       control.Config{Enabled: true},
	}
}

// clampPolicy is the replan workload's policy: absolute min/max clamps
// only. Token-bucket rate limits depend on timing and would make the
// actuated state nondeterministic.
func clampPolicy() *policy.Config {
	return &policy.Config{
		Mode: policy.ModeClamp,
		Rules: []policy.Rule{{
			Match:     "*",
			MinCPUGHz: 0.5, MaxCPUGHz: 5,
			MinRAMGB: 1, MaxRAMGB: 28,
		}},
	}
}

// The open-loop rates are fixed fractions of the closed-loop capacity
// (ingest_samples_per_s) measured on the 2-vCPU reference machine:
// firehose ~40% of ~1.9M samples/s, replan ~55% of ~85K samples/s.
var specs = []*spec{
	{
		name: "firehose", boxes: paperBoxes, fleet: synthFleet, engine: cheapCore,
		batchBoxes: 32, batchTicks: 4,
		warmTicks: 44, rounds: 6, burstTicks: 12,
		ingestRate: firehoseRate, readRate: 100, openScale: 1,
	},
	{
		name: "replan", boxes: replanBoxes, fleet: replanFleet, engine: productionCore,
		actuate: true, stagger: true,
		batchBoxes: 12, batchTicks: 1,
		warmTicks: 96, rounds: 5, burstTicks: 32,
		ingestRate: replanRate, readRate: 100, openScale: 2.3,
	},
}

// firehoseRate is the firehose open loop's ingest rate in samples/s.
const firehoseRate = 500000

// Replan fleet size and pacing: 48 boxes × 13 VMs, one tick per box
// every 1/replanTickHz seconds, so a box completes a 32-tick horizon
// (one plan) every 32/replanTickHz seconds: 54 plans/s fleet-wide.
const (
	replanBoxes  = 96
	replanTickHz = 10.0
	replanRate   = replanTickHz * replanBoxes * paperVMs * 2
	// replanAdversaryShare of boxes get a regime change.
	replanAdversaryShare = 0.25
)

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fleet is a workload's generated input: box metadata and a sample
// source that both the request bodies and the reference replay read.
type fleet struct {
	metas []state.BoxMeta
	index map[string]int
	vms   int
	// lead[b] offsets box b's ticks: its windows complete lead[b]
	// ticks ahead of an unstaggered box's.
	lead []int
	// fill writes box b's tick t into cpu and ram (len vms each).
	fill func(b, t int, cpu, ram []float64)
}

func newFleet(metas []state.BoxMeta, fill func(b, t int, cpu, ram []float64)) *fleet {
	f := &fleet{metas: metas, index: make(map[string]int, len(metas)), fill: fill,
		lead: make([]int, len(metas))}
	for i := range metas {
		f.index[metas[i].ID] = i
	}
	f.vms = len(metas[0].VMs)
	return f
}

// round2 rounds a usage percent to two decimals, the precision a
// monitoring agent reports. The shortest JSON form of the result
// parses back to the same float64, so the service and the reference
// replay see identical values.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// mix is splitmix64: a cheap, seedable hash for per-sample noise.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [-1, 1).
func unit(h uint64) float64 { return float64(h>>11)/float64(1<<52) - 1 }

// synthFleet is the paper-shaped fleet (13 VMs a box) with a diurnal
// load per box (seeded phase and amplitude) plus seeded per-sample
// noise, generated on demand rather than stored.
func synthFleet(seed int64, _, _, boxes int) (*fleet, error) {
	const spd = 8
	metas := make([]state.BoxMeta, boxes)
	phase := make([]float64, boxes)
	amp := make([]float64, boxes)
	for b := range metas {
		id := fmt.Sprintf("box-%05d", b)
		m := state.BoxMeta{ID: id, CPUCapGHz: 2.4 * paperVMs, RAMCapGB: 16 * paperVMs}
		for v := 0; v < paperVMs; v++ {
			m.VMs = append(m.VMs, state.VMMeta{
				ID: id + "-vm" + strconv.Itoa(v), CPUCapGHz: 2.4, RAMCapGB: 16,
			})
		}
		metas[b] = m
		h := mix(uint64(seed)*0x100000001b3 + uint64(b))
		phase[b] = math.Pi * (unit(h) + 1)
		amp[b] = 20 + 8*unit(mix(h))
	}
	s := uint64(seed)
	fill := func(b, t int, cpu, ram []float64) {
		w := 2*math.Pi*float64(t%spd)/spd + phase[b]
		base := mix(s ^ uint64(b)<<20 ^ uint64(t)<<40)
		for v := range cpu {
			h := mix(base + uint64(v))
			cpu[v] = round2(35 + amp[b]*math.Sin(w) + 5*unit(h))
			ram[v] = round2(50 + 0.6*amp[b]*math.Sin(w+1.3) + 3*unit(mix(h)))
		}
	}
	return newFleet(metas, fill), nil
}

// replanFleet is trace.Generate's calibrated fleet at 13 VMs per box,
// gap-free, with a seeded permanent regime change on a share of the
// boxes a quarter of the way into the measured ticks.
func replanFleet(seed int64, ticks, warm, boxes int) (*fleet, error) {
	const spd = 32
	days := (ticks + spd - 1) / spd
	tr := trace.Generate(trace.GenConfig{
		Boxes: boxes, Days: days, SamplesPerDay: spd, Seed: seed,
		MeanVMs: paperVMs, MinVMs: paperVMs, MaxVMs: paperVMs,
		// JSON cannot carry NaN gaps, and a zero GapFraction selects
		// the generator's default of 0.2: a tiny positive share keeps
		// every box gap-free.
		GapFraction: 1e-12,
	})
	// Exactly replanAdversaryShare of the boxes, chosen by the seed, get
	// the regime change, at start ticks spread evenly over the first
	// half of the measured ticks: boxes change one at a time, as they
	// would in a fleet, rather than all searching again at once.
	hit := rand.New(rand.NewSource(seed)).Perm(boxes)[:int(math.Round(replanAdversaryShare*float64(boxes)))]
	for i, b := range hit {
		start := warm + i*(ticks-warm)/(2*len(hit))
		if err := trace.ApplyAdversary(&tr.Boxes[b], trace.AdversaryConfig{
			Family: trace.AdversaryRegimeChange, Start: start,
			SamplesPerDay: spd, Seed: seed + int64(b),
		}); err != nil {
			return nil, err
		}
	}
	metas := make([]state.BoxMeta, boxes)
	for b := range tr.Boxes {
		box := &tr.Boxes[b]
		for v := range box.VMs {
			for t := range box.VMs[v].CPU {
				c, r := box.VMs[v].CPU[t], box.VMs[v].RAM[t]
				if math.IsNaN(c) || math.IsNaN(r) {
					return nil, fmt.Errorf("replan fleet: box %s has a gap at tick %d", box.ID, t)
				}
				box.VMs[v].CPU[t], box.VMs[v].RAM[t] = round2(c), round2(r)
			}
		}
		metas[b] = state.MetaOf(box)
	}
	fill := func(b, t int, cpu, ram []float64) {
		vms := tr.Boxes[b].VMs
		for v := range vms {
			cpu[v], ram[v] = vms[v].CPU[t], vms[v].RAM[t]
		}
	}
	return newFleet(metas, fill), nil
}

// ingestOp is one POST /v1/ingest request, encoded once during
// set-up: a chunk of batchBoxes boxes, each with its own tick range.
type ingestOp struct {
	chunk   int
	entries []entry
	body    []byte
	// want is the response prefix a fully accepted body returns.
	want []byte
}

// entry is box b's ticks [t0, t1) within one op.
type entry struct{ b, t0, t1 int }

func (o *ingestOp) samples(vms int) int {
	n := 0
	for _, e := range o.entries {
		n += (e.t1 - e.t0) * vms * 2
	}
	return n
}

// plan lays out ingest ops over relative ticks [t0, t1), each tick
// range covering the whole fleet in batchBoxes chunks. Box b's
// relative tick t is its absolute tick t + lead[b]; ticks before 0 are
// skipped, so a warm-up starting at -max(lead) gives each box lead[b]
// extra ticks.
func (s *spec) plan(f *fleet, t0, t1 int) []ingestOp {
	var ops []ingestOp
	n := len(f.metas)
	for t := t0; t < t1; t += s.batchTicks {
		te := min(t+s.batchTicks, t1)
		for b := 0; b < n; b += s.batchBoxes {
			op := ingestOp{chunk: b / s.batchBoxes}
			for k := b; k < min(b+s.batchBoxes, n); k++ {
				lo, hi := max(t+f.lead[k], 0), te+f.lead[k]
				if lo < hi {
					op.entries = append(op.entries, entry{b: k, t0: lo, t1: hi})
				}
			}
			if len(op.entries) > 0 {
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// encode builds each op's body with encoding/json (and its expected
// response prefix) before the phase that sends it, so no encoding
// happens while anything is timed. The ops are split over one
// goroutine per sender.
func encode(f *fleet, ops []ingestOp) error {
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(ops) && errs[k] == nil; i += senders {
				errs[k] = encodeOp(f, &ops[i])
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func encodeOp(f *fleet, o *ingestOp) error {
	req := serve.BatchRequest{Boxes: make([]serve.BatchEntry, 0, len(o.entries))}
	ticks := 0
	for _, en := range o.entries {
		e := serve.BatchEntry{ID: f.metas[en.b].ID, Samples: make([]serve.Tick, en.t1-en.t0)}
		for t := en.t0; t < en.t1; t++ {
			tk := serve.Tick{CPU: make([]float64, f.vms), RAM: make([]float64, f.vms)}
			f.fill(en.b, t, tk.CPU, tk.RAM)
			e.Samples[t-en.t0] = tk
		}
		ticks += en.t1 - en.t0
		req.Boxes = append(req.Boxes, e)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	o.body = body
	o.want = []byte(fmt.Sprintf(`{"accepted":%d,"failed":0,`, ticks))
	return nil
}

// registerBodies announces the fleet (box meta, no samples) in
// batchBoxes chunks.
func registerBodies(s *spec, f *fleet) ([][]byte, error) {
	var out [][]byte
	for b := 0; b < len(f.metas); b += s.batchBoxes {
		req := serve.BatchRequest{}
		for k := b; k < min(b+s.batchBoxes, len(f.metas)); k++ {
			m := f.metas[k]
			req.Boxes = append(req.Boxes, serve.BatchEntry{ID: m.ID, Box: &m})
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}
