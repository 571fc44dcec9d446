package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload to a few boxes and two rounds, keeping
// its pipeline and batch shape. The ingest rate shrinks with the fleet
// so each box's ticks arrive about as often as at full scale (the
// firehose 8× as often, to send a few bodies a second): faster, and the
// engine falls behind the store's retention under the race detector.
func tiny(t *testing.T, name string) *spec {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *sp
	speedup := 1.0
	c.rounds = 2
	if name == "replan" {
		c.boxes = 8
	} else {
		c.boxes = 64
		speedup = 8
	}
	c.ingestRate = sp.ingestRate * float64(c.boxes) / float64(sp.boxes) * speedup
	return &c
}

// manifest is the part of BENCHMARK.json the smoke test checks.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEveryMetricEmitted runs each workload at tiny scale, untraced
// and traced, and checks that the result line carries every metric
// BENCHMARK.json names, with its unit, and that the run is correct.
func TestEveryMetricEmitted(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(specs))
	}
	ctx := context.Background()
	for _, w := range m.Workloads {
		sp := tiny(t, w.Name)
		for _, traced := range []bool{false, true} {
			rep, err := measure(ctx, sp, 7, 1, traced, 0)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs, want := endToEnd, m.EndToEnd
			if traced {
				defs, want = perLayer, m.PerLayer
			}
			res := result{Correct: true, Metrics: map[string]value{}}
			if err := resultOf(rep, defs, "", &res); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d problems=%v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, rep.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil || !strings.HasPrefix(string(line), `{"correct":true,"attempted":`) {
				t.Errorf("%s traced=%v: result line %s (%v)", w.Name, traced, line, err)
			}
		}
	}
}

// TestCorruptionTripsGate corrupts one published plan, and separately
// one step outcome, of a real run and checks that the correctness gate
// rejects each while accepting the untouched run.
func TestCorruptionTripsGate(t *testing.T) {
	ctx := context.Background()
	r, err := prepare(runConfig{spec: tiny(t, "firehose"), seed: 3, seconds: 1, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()
	out, err := r.execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.liveErr != nil {
		t.Fatal(out.liveErr)
	}
	live := out.live
	if err := r.matchReplay(ctx, out, live); err != nil {
		t.Fatalf("untouched run rejected: %v", err)
	}

	const box = 5
	id := r.fleet.metas[box].ID
	p, ok := live.plans[id]
	if !ok {
		t.Fatalf("box %s has no plan", id)
	}
	orig := p.CPUSizes[0]
	p.CPUSizes[0] = math.Nextafter(orig, math.Inf(1))
	if err := r.matchReplay(ctx, out, live); err == nil {
		t.Error("a plan one ulp off passed the gate")
	}
	p.CPUSizes[0] = orig

	k := stepKey{box, int32(p.Step)}
	ev := live.steps[k]
	ev.ticketsAfter++
	live.steps[k] = ev
	if err := r.matchReplay(ctx, out, live); err == nil {
		t.Error("a step outcome with one extra ticket passed the gate")
	}
}
