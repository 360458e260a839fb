package autopipe_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"autopipe"
)

// The public facade is what the examples and downstream users consume; these
// tests exercise the documented end-to-end flow.

func TestPublicPlanEvaluateFlow(t *testing.T) {
	model := autopipe.GPT2_345M()
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	run := autopipe.Run{MicroBatch: 32, GlobalBatch: 512, Checkpoint: true}

	spec, blocks, err := autopipe.NewPlanner(autopipe.WithParallelism(1)).Plan(context.Background(), model, run, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Planner != "AutoPipe" {
		t.Errorf("planner = %q", spec.Planner)
	}
	if spec.Depth() != 2 {
		t.Errorf("depth = %d, want 2 (the paper's high-memory plan)", spec.Depth())
	}
	if spec.NumSliced < 1 {
		t.Error("pipeline plan without slicing")
	}
	res, err := autopipe.Evaluate(spec, blocks, run, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("evaluation failed: %s", res.Err)
	}
	if res.IterTime <= 0 || res.Micro != 8 {
		t.Errorf("unexpected evaluation: %+v", res)
	}
}

func TestPublicBuildSimulateSlice(t *testing.T) {
	cluster := autopipe.DefaultCluster()
	blocks, err := autopipe.Build(autopipe.BERTLarge(), 16, cluster)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := autopipe.NewPlanner(autopipe.WithParallelism(1)).PlanDepth(context.Background(), blocks, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, b := pr.Best.Partition.StageTimes(blocks)
	prof := autopipe.StageProfile{Fwd: f, Bwd: b, Comm: blocks.Comm, Micro: 8}
	sr, err := autopipe.SimulateProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if sr.IterTime <= 0 || sr.Master < 0 || sr.Master >= 4 {
		t.Errorf("bad simulation: %+v", sr)
	}
	sp, err := autopipe.SliceProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumSliced < 1 || sp.NumSliced > 4 {
		t.Errorf("slice plan %+v out of range", sp)
	}
}

// TestPlannerAPIFlow exercises the redesigned entry point: a Planner built
// from functional options, planning under a context, reporting telemetry.
func TestPlannerAPIFlow(t *testing.T) {
	reg := autopipe.NewRegistry()
	p := autopipe.NewPlanner(
		autopipe.WithParallelism(4),
		autopipe.WithObserver(reg),
	)
	model := autopipe.GPT2_345M()
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	run := autopipe.Run{MicroBatch: 32, GlobalBatch: 512, Checkpoint: true}

	spec, blocks, err := p.Plan(context.Background(), model, run, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Depth() != 2 {
		t.Errorf("depth = %d, want 2 (the paper's high-memory plan)", spec.Depth())
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges) == 0 {
		t.Error("WithObserver registry received no telemetry")
	}

	// The profile helpers compose with a planned partition.
	prof := autopipe.Profile(spec.Partition, blocks, 8)
	sr, err := autopipe.SimulateProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if sr.IterTime <= 0 {
		t.Errorf("bad simulation: %+v", sr)
	}
	sp, err := autopipe.SliceProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumSliced != spec.NumSliced {
		t.Errorf("SliceProfile = %d sliced, spec has %d", sp.NumSliced, spec.NumSliced)
	}
}

// TestPlannerDeterministicAcrossParallelism is the public determinism
// property: for every zoo model, parallelism 1, 4, and GOMAXPROCS yield
// byte-identical Specs (SearchTime, the only wall-clock field, zeroed).
func TestPlannerDeterministicAcrossParallelism(t *testing.T) {
	cluster := autopipe.DefaultCluster()
	run := autopipe.Run{MicroBatch: 8, GlobalBatch: 512, Checkpoint: true}
	for _, model := range autopipe.Models() {
		var ref *autopipe.Spec
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			p := autopipe.NewPlanner(autopipe.WithParallelism(w))
			spec, _, err := p.Plan(context.Background(), model, run, cluster)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", model.Name, w, err)
			}
			spec.SearchTime = 0
			if ref == nil {
				ref = spec
			} else if !reflect.DeepEqual(ref, spec) {
				t.Errorf("%s: plan at parallelism %d differs from parallelism 1:\n%+v\nvs\n%+v",
					model.Name, w, spec, ref)
			}
		}
	}
}

func TestPlannerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := autopipe.NewPlanner()
	cluster := autopipe.DefaultCluster()
	run := autopipe.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
	if _, _, err := p.Plan(ctx, autopipe.GPT2_345M(), run, cluster); !errors.Is(err, context.Canceled) {
		t.Errorf("Plan on cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestPublicSentinelErrors(t *testing.T) {
	p := autopipe.NewPlanner()
	cluster := autopipe.DefaultCluster()

	// Micro-batch that does not divide the global batch → ErrBadConfig.
	bad := autopipe.Run{MicroBatch: 3, GlobalBatch: 128, Checkpoint: true}
	if _, _, err := p.Plan(context.Background(), autopipe.GPT2_345M(), bad, cluster); !errors.Is(err, autopipe.ErrBadConfig) {
		t.Errorf("invalid run: err = %v, want ErrBadConfig", err)
	}

	// A huge micro-batch on few GPUs exceeds memory at every depth →
	// ErrInfeasible.
	cluster.NumGPUs = 2
	oom := autopipe.Run{MicroBatch: 512, GlobalBatch: 1024, Checkpoint: true}
	if _, _, err := p.Plan(context.Background(), autopipe.GPT2_1_3B(), oom, cluster); !errors.Is(err, autopipe.ErrInfeasible) {
		t.Errorf("oversized run: err = %v, want ErrInfeasible", err)
	}
}

// TestEvalResultFailure checks the typed view of evaluation failures.
func TestEvalResultFailure(t *testing.T) {
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	run := autopipe.Run{MicroBatch: 32, GlobalBatch: 512, Checkpoint: true}
	spec, blocks, err := autopipe.NewPlanner().Plan(context.Background(), autopipe.GPT2_345M(), run, cluster)
	if err != nil {
		t.Fatal(err)
	}
	res, err := autopipe.Evaluate(spec, blocks, run, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure() != nil {
		t.Errorf("feasible plan reports failure: %v", res.Failure())
	}

	// Starve the device to force an OOM marker.
	tiny := cluster
	tiny.Device.MemoryBytes = 1 << 30
	res, err = autopipe.Evaluate(spec, blocks, run, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Err, "OOM") {
		t.Fatalf("expected an OOM marker, got %q", res.Err)
	}
	if !errors.Is(res.Failure(), autopipe.ErrOOM) {
		t.Errorf("Failure() = %v, want ErrOOM", res.Failure())
	}
}

func TestPublicModelZoo(t *testing.T) {
	if got := len(autopipe.Models()); got != 4 {
		t.Errorf("zoo size %d, want 4", got)
	}
	m, err := autopipe.ModelByName("gpt2-1.3b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Name, "1.3B") {
		t.Errorf("resolved %q", m.Name)
	}
}
