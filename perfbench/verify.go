package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/state"
)

// stepRec is one published event in a pointer-free form. A run keeps
// every step outcome it caused, and a pointer-free copy adds nothing
// to the collector's marking work, so the service's collections cost
// what they would without the benchmark.
type stepRec struct {
	at                          int64 // publish time, Unix ns
	box, step, shard            int32
	kind, reason, blend         uint8 // indices into the names table
	research, degraded          bool
	ticketsBefore, ticketsAfter int32
	deltaVMs                    int32
	mape, lambda                uint64 // float64 bits, compared exactly
}

// names interns the events' string fields (event type, decision reason,
// blend reason), which come from small fixed sets.
var names = struct {
	sync.Mutex
	index map[string]uint8
	list  []string
}{index: map[string]uint8{}}

func intern(s string) uint8 {
	names.Lock()
	defer names.Unlock()
	k, ok := names.index[s]
	if !ok {
		k = uint8(len(names.list))
		names.index[s] = k
		names.list = append(names.list, s)
	}
	return k
}

func name(k uint8) string {
	names.Lock()
	defer names.Unlock()
	return names.list[k]
}

// compact appends evs to dst as records; index maps box ids to the
// fleet's box indices.
func compact(dst []stepRec, evs []obs.Event, index map[string]int) ([]stepRec, error) {
	for i := range evs {
		ev := &evs[i]
		b, ok := index[ev.Box]
		if !ok {
			return dst, fmt.Errorf("%s event for unknown box %q", ev.Type, ev.Box)
		}
		dst = append(dst, stepRec{
			at: ev.Time.UnixNano(), box: int32(b), step: int32(ev.Step), shard: int32(ev.Shard),
			kind: intern(ev.Type), reason: intern(ev.Reason), blend: intern(ev.BlendReason),
			research: ev.Research, degraded: ev.Degraded,
			ticketsBefore: int32(ev.TicketsBefore), ticketsAfter: int32(ev.TicketsAfter),
			deltaVMs: int32(ev.DeltaVMs),
			mape:     math.Float64bits(ev.MeanMAPE), lambda: math.Float64bits(ev.Lambda),
		})
	}
	return dst, nil
}

// stepKey names one rolling step of one box.
type stepKey struct{ box, step int32 }

// snapshot is what a run published: every step outcome and each box's
// latest plan.
type snapshot struct {
	steps map[stepKey]stepRec
	plans map[string]engine.Plan
}

// snapshotOf collects step outcomes and latest plans; it returns the
// number of actuation failures separately, since the reference replay
// never actuates.
func snapshotOf(plans map[string]engine.Plan, recs []stepRec) (snapshot, int) {
	s := snapshot{steps: make(map[stepKey]stepRec, len(recs)), plans: plans}
	applyErrs := 0
	applyErr := intern("apply_error")
	for _, rec := range recs {
		if rec.kind == applyErr {
			applyErrs++
			continue
		}
		// When the step ran differs between a live and a replayed
		// engine; the decision does not.
		rec.at = 0
		s.steps[stepKey{rec.box, rec.step}] = rec
	}
	return s, applyErrs
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func samePlan(a, b engine.Plan) bool {
	return a.Box == b.Box && a.Step == b.Step &&
		sameFloats(a.CPUSizes, b.CPUSizes) && sameFloats(a.RAMSizes, b.RAMSizes) &&
		a.TicketsBefore == b.TicketsBefore && a.TicketsAfter == b.TicketsAfter &&
		sameFloat(a.MeanMAPE, b.MeanMAPE) && a.Research == b.Research &&
		a.Reason == b.Reason && a.Degraded == b.Degraded &&
		sameFloat(a.Lambda, b.Lambda) && a.BlendReason == b.BlendReason
}

// diff reports the first few differences between a live snapshot and
// its reference; nil means bit-identical.
func (live snapshot) diff(ref snapshot) error {
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	keys := make([]stepKey, 0, len(ref.steps))
	for k := range ref.steps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].box != keys[j].box {
			return keys[i].box < keys[j].box
		}
		return keys[i].step < keys[j].step
	})
	for _, k := range keys {
		le, ok := live.steps[k]
		switch {
		case !ok:
			note("box %d step %d: reference %s, live missing", k.box, k.step, name(ref.steps[k].kind))
		case le != ref.steps[k]:
			note("box %d step %d: live %+v, reference %+v", k.box, k.step, le, ref.steps[k])
		}
	}
	for k, le := range live.steps {
		if _, ok := ref.steps[k]; !ok {
			note("box %d step %d: live %s not in reference", k.box, k.step, name(le.kind))
		}
	}
	for id, rp := range ref.plans {
		lp, ok := live.plans[id]
		switch {
		case !ok:
			note("box %s: live has no plan", id)
		case !samePlan(lp, rp):
			note("box %s: live plan step %d differs from reference step %d", id, lp.Step, rp.Step)
		}
	}
	if len(live.plans) != len(ref.plans) {
		note("live has %d plans, reference %d", len(live.plans), len(ref.plans))
	}
	if len(bad) > 0 {
		return fmt.Errorf("plans differ from the synchronous replay: %v", bad)
	}
	return nil
}

// replay feeds the accepted ops into fresh stores and engines in
// process, with a synchronous scheduling pass after every append: the
// reference every published plan must match bit for bit. A plan is a
// function of its own box's samples alone, so the fleet is split over
// one store and engine per sender, replayed concurrently.
func replay(ctx context.Context, s *spec, f *fleet, ops []ingestOp, ok []bool, eventCap int) (map[string]engine.Plan, []stepRec, error) {
	type part struct {
		plans map[string]engine.Plan
		recs  []stepRec
		err   error
	}
	parts := make([]part, senders)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			p.plans, p.recs, p.err = replayPart(ctx, s, f, ops, ok, eventCap, k)
		}(k)
	}
	wg.Wait()
	plans := map[string]engine.Plan{}
	var recs []stepRec
	for _, p := range parts {
		if p.err != nil {
			return nil, nil, p.err
		}
		for id, pl := range p.plans {
			plans[id] = pl
		}
		recs = append(recs, p.recs...)
	}
	return plans, recs, nil
}

// replayPart replays the boxes b with b % senders == k.
func replayPart(ctx context.Context, s *spec, f *fleet, ops []ingestOp, ok []bool, eventCap, k int) (map[string]engine.Plan, []stepRec, error) {
	st, err := state.NewStoreSharded(s.history(), state.DefaultShards)
	if err != nil {
		return nil, nil, err
	}
	log := obs.NewEventLog(eventCap)
	cfg := s.engine()
	cfg.Events = log
	cfg.Workers = 1
	e, err := engine.New(st, cfg)
	if err != nil {
		return nil, nil, err
	}
	for b, m := range f.metas {
		if b%senders == k {
			if err := st.Register(m); err != nil {
				return nil, nil, err
			}
		}
	}
	cpu := make([][]float64, s.batchTicks)
	ram := make([][]float64, s.batchTicks)
	for t := range cpu {
		cpu[t], ram[t] = make([]float64, f.vms), make([]float64, f.vms)
	}
	for i := range ops {
		if !ok[i] {
			continue
		}
		for _, en := range ops[i].entries {
			if en.b%senders != k {
				continue
			}
			n := en.t1 - en.t0
			for t := en.t0; t < en.t1; t++ {
				f.fill(en.b, t, cpu[t-en.t0], ram[t-en.t0])
			}
			id := f.metas[en.b].ID
			if _, err := st.AppendBatch(id, cpu[:n], ram[:n]); err != nil {
				return nil, nil, err
			}
			// Only the appended box's shard has a dirty box: a pass
			// over it is the whole of a Sync.
			e.SyncShard(ctx, st.ShardOf(id))
		}
	}
	events := log.Tail(0, "")
	if uint64(len(events)) != log.Total() {
		return nil, nil, fmt.Errorf("replay event log kept %d of %d events", len(events), log.Total())
	}
	recs, err := compact(nil, events, f.index)
	if err != nil {
		return nil, nil, err
	}
	plans := map[string]engine.Plan{}
	for b, m := range f.metas {
		if b%senders == k {
			if p, ok := e.Plan(m.ID); ok {
				plans[m.ID] = p
			}
		}
	}
	return plans, recs, nil
}

// verify is the correctness gate: every accepted tick is in the live
// store, no plan failed to actuate, and every published step outcome
// and latest plan is bit-identical to the synchronous replay.
func (r *run) verify(ctx context.Context, out *outcome) error {
	if out.liveErr != nil {
		return out.liveErr
	}
	return r.matchReplay(ctx, out, out.live)
}

// published checks the live store's totals against the accepted ticks
// and returns what the live service published.
func (r *run) published(out *outcome) (snapshot, error) {
	want := make([]int, len(r.fleet.metas))
	for i := range r.ops {
		if r.ok[i] {
			for _, e := range r.ops[i].entries {
				want[e.b] += e.t1 - e.t0
			}
		}
	}
	st := r.svc.Store()
	plans := map[string]engine.Plan{}
	for b, m := range r.fleet.metas {
		total, err := st.Total(m.ID)
		if err != nil {
			return snapshot{}, err
		}
		if total != want[b] {
			return snapshot{}, fmt.Errorf("box %s: store holds %d ticks, %d were accepted", m.ID, total, want[b])
		}
		if p, ok := r.svc.Engine().Plan(m.ID); ok {
			plans[m.ID] = p
		}
	}
	live, applyErrs := snapshotOf(plans, r.recs)
	if applyErrs > 0 {
		return snapshot{}, fmt.Errorf("%d plans failed to actuate, first: %s", applyErrs, r.applyErr)
	}
	return live, nil
}

// matchReplay replays the accepted ops and compares.
func (r *run) matchReplay(ctx context.Context, out *outcome, live snapshot) error {
	refPlans, refRecs, err := replay(ctx, r.cfg.spec, r.fleet, r.ops, r.ok, out.stepsDue+1024)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	ref, _ := snapshotOf(refPlans, refRecs)
	return live.diff(ref)
}
