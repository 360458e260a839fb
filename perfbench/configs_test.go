package main

import (
	"context"
	"testing"

	"autopipe"
	"autopipe/internal/service"
)

func TestConfigGenDeterministicAndDistinct(t *testing.T) {
	const n = 3000
	a, err := newConfigGen(11).take(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newConfigGen(11).take(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for i := range a {
		ka, _ := service.Key(a[i].request())
		kb, _ := service.Key(b[i].request())
		if ka != kb {
			t.Fatalf("draw %d differs between generators with the same seed: %s vs %s", i, a[i], b[i])
		}
		keys[ka] = true
		if m := a[i].Run.GlobalBatch / a[i].Run.MicroBatch; m < minMicros || m > maxMicros {
			t.Fatalf("draw %d (%s) has %d micro-batches, outside [%d,%d]", i, a[i], m, minMicros, maxMicros)
		}
	}
	if len(keys) != n {
		t.Fatalf("%d draws gave %d distinct service keys", n, len(keys))
	}
	c, _ := newConfigGen(12).take(1)
	if k, _ := service.Key(c[0].request()); k == mustKey(t, a[0]) {
		t.Errorf("seeds 11 and 12 drew the same first config %s", a[0])
	}
}

// Every round of draws visits each cell of the space once.
func TestConfigGenStratified(t *testing.T) {
	g := newConfigGen(5)
	cells := len(g.strata)
	cs, err := g.take(2 * cells)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		seen := map[stratum]bool{}
		for _, c := range cs[round*cells : (round+1)*cells] {
			seen[stratum{c.Model, c.Cluster.NumGPUs, c.Run.MicroBatch}] = true
		}
		if len(seen) != cells {
			t.Errorf("round %d visited %d of %d cells", round, len(seen), cells)
		}
	}
}

// Every cell plans at both ends of the micro-batch bound, so no workload
// draws an infeasible config.
func TestConfigSpaceFeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("plans every cell of the space")
	}
	for _, s := range spaceStrata() {
		for _, n := range []int{minMicros, maxMicros} {
			cl := autopipe.DefaultCluster()
			cl.NumGPUs = s.gpus
			run := autopipe.Run{MicroBatch: s.mbs, GlobalBatch: s.mbs * n, Checkpoint: true}
			spec, bl, err := autopipe.NewPlanner(autopipe.WithParallelism(1)).Plan(context.Background(), s.model, run, cl)
			if err != nil {
				t.Errorf("%s gpus=%d mbs=%d micros=%d: %v", s.model.Name, s.gpus, s.mbs, n, err)
				continue
			}
			res, err := autopipe.Evaluate(spec, bl, run, cl)
			if err == nil {
				err = res.Failure()
			}
			if err != nil {
				t.Errorf("%s gpus=%d mbs=%d micros=%d: evaluate: %v", s.model.Name, s.gpus, s.mbs, n, err)
			}
		}
	}
}

func mustKey(t *testing.T, c planConfig) string {
	t.Helper()
	k, err := service.Key(c.request())
	if err != nil {
		t.Fatal(err)
	}
	return k
}
