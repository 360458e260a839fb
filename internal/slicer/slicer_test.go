package slicer

import (
	"testing"
	"testing/quick"

	"autopipe/internal/config"
	"autopipe/internal/exec"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
)

// uniform is the profile of a p-stage pipeline whose stages all take f
// forward and b backward.
func uniform(p int, f, b, comm float64, m int) sim.StageProfile {
	prof := sim.StageProfile{Fwd: make([]float64, p), Bwd: make([]float64, p), Comm: comm, Micro: m}
	for i := range prof.Fwd {
		prof.Fwd[i], prof.Bwd[i] = f, b
	}
	return prof
}

func TestSolveUniformSlicesOne(t *testing.T) {
	// The paper's Fig. 8 example: a 4-stage pipeline with checkpointed
	// backward (b = 3f) needs only micro-batch 0 sliced.
	p, err := SolveProfile(uniform(4, 1, 3, 0.01, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSliced != 1 {
		t.Errorf("NumSliced = %d, want 1", p.NumSliced)
	}
}

func TestSolveSingleStage(t *testing.T) {
	p, err := SolveProfile(uniform(1, 1, 2, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSliced != 0 {
		t.Errorf("single stage sliced %d micro-batches, want 0", p.NumSliced)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := SolveProfile(sim.StageProfile{Micro: 4}); err == nil {
		t.Error("want error for empty stages")
	}
	if _, err := SolveProfile(sim.StageProfile{Fwd: []float64{1}, Bwd: []float64{1, 2}, Micro: 4}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := SolveProfile(sim.StageProfile{Fwd: []float64{1}, Bwd: []float64{2}}); err == nil {
		t.Error("want error for zero micro-batches")
	}
}

func TestSolveLightBackwardSlicesMore(t *testing.T) {
	// Without checkpointing (b < 2f) the deadline is tighter and more
	// micro-batches must be sliced than with a heavy backward.
	heavy, err := SolveProfile(uniform(6, 1, 3, 0.01, 12))
	if err != nil {
		t.Fatal(err)
	}
	light, err := SolveProfile(uniform(6, 1, 1.2, 0.01, 12))
	if err != nil {
		t.Fatal(err)
	}
	if light.NumSliced < heavy.NumSliced {
		t.Errorf("light backward sliced %d < heavy %d", light.NumSliced, heavy.NumSliced)
	}
}

func TestSolveBounds(t *testing.T) {
	// The answer never exceeds the warmup depth or the iteration size.
	prop := func(pRaw, mRaw, bRaw uint8) bool {
		p := 2 + int(pRaw)%10
		m := 1 + int(mRaw)%20
		b := 1 + float64(bRaw%40)/10
		plan, err := SolveProfile(uniform(p, 1, b, 0.02, m))
		if err != nil {
			return false
		}
		return plan.NumSliced >= 1 && plan.NumSliced <= p && plan.NumSliced <= m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSolvedCountHalvesStartupWithoutSlowingIteration is the paper's core
// Slicer claim, verified end-to-end on the executor: the solved slicing
// count halves the startup overhead and never lengthens the iteration.
func TestSolvedCountHalvesStartupWithoutSlowingIteration(t *testing.T) {
	net := config.Network{Bandwidth: 1e12, Latency: 0}
	for _, tc := range []struct {
		p, m int
		f, b float64
	}{
		{4, 8, 1, 3},
		{8, 16, 1, 3},
		{12, 24, 1, 3},
		{4, 8, 1, 2},
		{6, 12, 2, 6},
	} {
		prof := uniform(tc.p, tc.f, tc.b, 0, tc.m)
		plan, err := SolveProfile(prof)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := schedule.OneFOneB(tc.p, tc.m)
		sliced, err := schedule.Sliced(tc.p, tc.m, plan.NumSliced)
		if err != nil {
			t.Fatal(err)
		}
		cfg := exec.Config{VirtFwd: prof.Fwd, VirtBwd: prof.Bwd, Network: net}
		rb, err := exec.Run(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exec.Run(sliced, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Startup > rb.Startup/2+1e-9 {
			t.Errorf("p=%d m=%d b/f=%.1f sliced=%d: startup %v, want <= half of %v",
				tc.p, tc.m, tc.b/tc.f, plan.NumSliced, rs.Startup, rb.Startup)
		}
		if rs.IterTime > rb.IterTime+1e-9 {
			t.Errorf("p=%d m=%d sliced=%d: iteration %v slower than base %v",
				tc.p, tc.m, plan.NumSliced, rs.IterTime, rb.IterTime)
		}
	}
}

func TestSolveMatchesGeometry(t *testing.T) {
	p, err := SolveProfile(uniform(4, 1, 3, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages != 4 || p.Micro != 8 {
		t.Errorf("plan geometry %+v, want stages 4 micro 8", p)
	}
}
