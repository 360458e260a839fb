package core

import (
	"context"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
	"autopipe/internal/partition"
)

func buildSub(t *testing.T, mc config.Model, mbs int) *model.Blocks {
	t.Helper()
	cl := config.DefaultCluster()
	bl, err := model.Build(mc, cost.Geometry{MicroBatch: mbs, Checkpoint: true},
		cl.Device, cl.Network, model.SubLayer)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

// planDepth runs a serial fixed-depth search, failing the test on error.
func planDepth(t *testing.T, bl *model.Blocks, p, m int) *PlanResult {
	t.Helper()
	res, err := PlanDepthOpts(context.Background(), bl, p, m, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("plan depth %d with %d micro-batches: %v", p, m, err)
	}
	return res
}

func TestPlanDepthReproducesTable2Scheme4(t *testing.T) {
	// The planner's choice for GPT-2 345M at 4 stages is Table II's
	// partition 4: 6.5 / 6.5 / 6.5 / 4.5 layers.
	bl := buildSub(t, config.GPT2_345M(), 4)
	res := planDepth(t, bl, 4, 8)
	got := res.Best.Partition.LayerCounts(bl)
	want := []float64{6.5, 6.5, 6.5, 4.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layer counts %v, want %v (paper Table II, partition 4)", got, want)
		}
	}
}

func TestPlanDepthNeverWorseThanSeed(t *testing.T) {
	for _, mc := range config.Zoo() {
		for _, p := range []int{2, 4, 8} {
			bl := buildSub(t, mc, 4)
			res := planDepth(t, bl, p, 2*p)
			if res.Best.Sim.IterTime > res.Seed.Sim.IterTime+1e-12 {
				t.Errorf("%s p=%d: heuristic (%.2f ms) worse than Algorithm 1 seed (%.2f ms)",
					mc.Name, p, res.Best.Sim.IterTime*1e3, res.Seed.Sim.IterTime*1e3)
			}
			if res.Evaluated < 1 {
				t.Errorf("%s p=%d: no schemes evaluated", mc.Name, p)
			}
		}
	}
}

func TestPlanDepthBeatsEvenPartition(t *testing.T) {
	// The balanced partition must beat Megatron's even split whenever the
	// head/embedding imbalance matters (any depth).
	bl := buildSub(t, config.GPT2_345M(), 4)
	for _, p := range []int{2, 4, 8, 12} {
		res := planDepth(t, bl, p, 2*p)
		// Build the even partition by hand: L/p layers per stage.
		L := bl.Model.Layers
		bounds := make([]int, p+1)
		for i := 1; i < p; i++ {
			bounds[i] = 1 + 2*(L/p)*i
		}
		bounds[p] = bl.Len()
		even, err := partition.New(bounds, bl.Len())
		if err != nil {
			t.Fatal(err)
		}
		evenC, err := evaluate(bl, even, 2*p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Sim.IterTime >= evenC.Sim.IterTime {
			t.Errorf("p=%d: planner (%.2f ms) no better than even partition (%.2f ms)",
				p, res.Best.Sim.IterTime*1e3, evenC.Sim.IterTime*1e3)
		}
	}
}

func TestPlanDepthSingleStage(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	res := planDepth(t, bl, 1, 8)
	if res.Best.Partition.Stages() != 1 {
		t.Errorf("depth 1 produced %d stages", res.Best.Partition.Stages())
	}
}

func TestAdjustAfterMasterSatisfiesEq1(t *testing.T) {
	// Build a deliberately bad suffix: the master stage is 0 and the tail
	// stages are front-loaded; the adjustment must repack them so that the
	// cumulative suffix load satisfies Eq. (1) stage by stage (as far as
	// total load permits).
	bl := buildSub(t, config.GPT2_345M(), 4)
	part, err := partition.New([]int{0, 25, 45, 48, 50}, bl.Len())
	if err != nil {
		t.Fatal(err)
	}
	adj, changed := adjustAfterMaster(bl, part, 0)
	if !changed {
		t.Fatal("adjustment did not change the lopsided suffix")
	}
	f, b := adj.StageTimes(bl)
	bi := b[0]
	cum := 0.0
	for s := 1; s <= 2; s++ { // all but the absorbing last stage
		cum += f[s] + b[s]
		if cum > float64(s)*bi+1e-9 {
			t.Errorf("Eq.(1) violated at stage %d: cumulative %.3f > %d*b_0 = %.3f", s, cum, s, float64(s)*bi)
		}
	}
}

func TestPlanClusterDepthChoicesMatchPaper(t *testing.T) {
	cl := config.DefaultCluster()
	cases := []struct {
		mc        config.Model
		mbs, gbs  int
		gpus      int
		wantDepth int
	}{
		// Low memory: complete data parallelism (Table III).
		{config.GPT2_345M(), 4, 128, 4, 1},
		{config.GPT2_345M(), 4, 128, 16, 1},
		// High memory: 2-stage pipelines for GPT-2 345M at micro-batch 32,
		// 4-stage for GPT-2 1.3B at micro-batch 16 (Table IV).
		{config.GPT2_345M(), 32, 512, 4, 2},
		{config.GPT2_345M(), 32, 512, 8, 2},
		{config.GPT2_1_3B(), 16, 512, 4, 4},
		{config.GPT2_1_3B(), 16, 512, 8, 4},
	}
	for _, tc := range cases {
		c := cl
		c.NumGPUs = tc.gpus
		run := config.Run{MicroBatch: tc.mbs, GlobalBatch: tc.gbs, Checkpoint: true}
		spec, _, err := PlanClusterOpts(context.Background(), tc.mc, run, c, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s %d GPUs mbs %d: %v", tc.mc.Name, tc.gpus, tc.mbs, err)
		}
		if spec.Depth() != tc.wantDepth {
			t.Errorf("%s %d GPUs mbs %d: depth %d, want %d (paper)", tc.mc.Name, tc.gpus, tc.mbs, spec.Depth(), tc.wantDepth)
		}
		if spec.Depth() > 1 && spec.NumSliced < 1 {
			t.Errorf("%s %d GPUs: pipeline plan without slicing", tc.mc.Name, tc.gpus)
		}
		if d := spec.Devices(); d != tc.gpus {
			t.Errorf("%s: plan uses %d devices, want %d", tc.mc.Name, d, tc.gpus)
		}
	}
}

func TestPlanClusterRejectsInfeasible(t *testing.T) {
	cl := config.DefaultCluster()
	cl.NumGPUs = 1
	// GPT-2 1.3B cannot fit one 24 GB device at micro-batch 16 at any depth.
	run := config.Run{MicroBatch: 16, GlobalBatch: 512, Checkpoint: true}
	if _, _, err := PlanClusterOpts(context.Background(), config.GPT2_1_3B(), run, cl, Options{Parallelism: 1}); err == nil {
		t.Error("want error: no feasible single-GPU plan for GPT-2 1.3B")
	}
	// Invalid run configs are rejected up front.
	if _, _, err := PlanClusterOpts(context.Background(), config.GPT2_345M(), config.Run{}, cl, Options{Parallelism: 1}); err == nil {
		t.Error("want error for invalid run")
	}
}

func TestMasterMovesRespectStructure(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	part, err := partition.Balance(bl.Weights(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := partition.NewTable(bl.Weights(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		for _, mv := range masterMoves(part, i, tab, nil) {
			if mv.Stages() != part.Stages() {
				t.Errorf("move changed depth: %v", mv.Bounds)
			}
			if mv.Equal(part) {
				t.Errorf("move produced the unchanged partition")
			}
		}
	}
}
