package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"autopipe/internal/errdefs"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestSimulateUniformPipelineMakespan(t *testing.T) {
	// A uniform pipeline with zero comm has the classic 1F1B makespan
	// (m + n - 1) * (f + b).
	for _, tc := range []struct{ n, m int }{{1, 1}, {2, 2}, {2, 8}, {4, 8}, {4, 16}, {8, 16}, {16, 32}} {
		f := make([]float64, tc.n)
		b := make([]float64, tc.n)
		for i := range f {
			f[i], b[i] = 1, 1
		}
		r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: tc.m})
		if err != nil {
			t.Fatalf("SimulateProfile(n=%d,m=%d): %v", tc.n, tc.m, err)
		}
		want := float64(tc.m+tc.n-1) * 2
		if !almostEq(r.IterTime, want) {
			t.Errorf("n=%d m=%d: IterTime = %v, want %v\n%s", tc.n, tc.m, r.IterTime, want, r.Timeline())
		}
	}
}

func TestSimulateSingleStage(t *testing.T) {
	r, err := SimulateProfile(StageProfile{Fwd: []float64{2}, Bwd: []float64{3}, Comm: 0.5, Micro: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * (2.0 + 3.0); !almostEq(r.IterTime, want) {
		t.Errorf("IterTime = %v, want %v", r.IterTime, want)
	}
	if r.Startup != 0 {
		t.Errorf("Startup = %v, want 0 for a single stage", r.Startup)
	}
	if r.Master != 0 {
		t.Errorf("Master = %d, want 0", r.Master)
	}
}

func TestSimulateStartupIsFirstMicroBatchArrival(t *testing.T) {
	f := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	comm := 0.25
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: comm, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The last stage can start once the first micro-batch has traversed the
	// three earlier stages plus three comm hops.
	want := (1 + 2 + 3) + 3*comm
	if !almostEq(r.Startup, want) {
		t.Errorf("Startup = %v, want %v", r.Startup, want)
	}
}

func TestSimulateWarmupEstimateMatchesBalanced(t *testing.T) {
	// On a perfectly balanced pipeline the paper's Warmup estimate (total
	// forward of one micro-batch plus hops) equals the simulated startup.
	f := []float64{2, 2, 2, 2}
	b := []float64{4, 4, 4, 4}
	comm := 0.1
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: comm, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	est := WarmupEstimate(f[:3], comm) + comm // estimate covers stages 0..n-2 then one hop
	if !almostEq(r.Startup, est) {
		t.Errorf("Startup = %v, estimate %v", r.Startup, est)
	}
}

func TestSimulateMasterIsHeaviestStage(t *testing.T) {
	// Stage 2 carries twice the load; it must dominate the 1F1B critical
	// path and therefore be the master stage.
	f := []float64{1, 1, 2, 1}
	b := []float64{2, 2, 4, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.01, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Master != 2 {
		t.Errorf("Master = %d, want 2\n%s", r.Master, r.Timeline())
	}
}

func TestSimulateMasterTieBreaksTowardLastStage(t *testing.T) {
	// A perfectly balanced pipeline has many equal-length paths; the paper
	// defines the critical path as the one closest to the last stage.
	f := []float64{1, 1, 1, 1}
	b := []float64{2, 2, 2, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Master != len(f)-1 {
		t.Errorf("Master = %d, want %d (tie-break toward last stage)", r.Master, len(f)-1)
	}
}

func TestSimulateCriticalPathIsContiguousAndSpansIteration(t *testing.T) {
	f := []float64{1, 1.5, 1, 1.2}
	b := []float64{2, 3, 2, 2.4}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.05, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Critical) == 0 {
		t.Fatal("empty critical path")
	}
	first, last := r.Critical[0], r.Critical[len(r.Critical)-1]
	if first.Stage != 0 || first.Micro != 0 || first.Kind != Fwd {
		t.Errorf("critical path starts at %+v, want F of micro 0 on stage 0", first)
	}
	if !almostEq(last.End, r.IterTime) {
		t.Errorf("critical path ends at %v, want IterTime %v", last.End, r.IterTime)
	}
	for i := 1; i < len(r.Critical); i++ {
		prev, cur := r.Critical[i-1], r.Critical[i]
		if cur.Start < prev.End-1e-12 {
			t.Errorf("critical path not causally ordered: %+v then %+v", prev, cur)
		}
		if d := cur.Stage - prev.Stage; d < -1 || d > 1 {
			t.Errorf("critical path jumps stages: %d -> %d", prev.Stage, cur.Stage)
		}
	}
}

func TestSimulateBlockRenumbering(t *testing.T) {
	// Paper: stage k of an n-stage, m-micro-batch pipeline owns
	// max(0, m-n+k+1) 1F1B blocks.
	n, m := 4, 8
	f := []float64{1, 1, 1, 1}
	b := []float64{2, 2, 2, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: m})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		blocks := 0
		for _, op := range r.Ops[k] {
			if op.Phase == OneFOneB && op.Kind == Fwd {
				blocks++
			}
		}
		want := m - n + k + 1
		if want < 0 {
			want = 0
		}
		if blocks != want {
			t.Errorf("stage %d: %d 1F1B blocks, want %d", k, blocks, want)
		}
	}
}

func TestSimulateOpCountsAndOrdering(t *testing.T) {
	f := []float64{1, 2, 1}
	b := []float64{2, 4, 2}
	m := 6
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m})
	if err != nil {
		t.Fatal(err)
	}
	for x, ops := range r.Ops {
		var fwd, bwd int
		for i, op := range ops {
			if op.Kind == Fwd {
				fwd++
			} else {
				bwd++
			}
			if i > 0 && op.Start < ops[i-1].End-1e-12 {
				t.Errorf("stage %d: op %d starts before predecessor ends", x, i)
			}
		}
		if fwd != m || bwd != m {
			t.Errorf("stage %d: %d fwd / %d bwd ops, want %d each", x, fwd, bwd, m)
		}
	}
}

func TestSimulateFewerMicroBatchesThanStages(t *testing.T) {
	// m < n degenerates into a GPipe-like fill/drain; it must still simulate.
	f := []float64{1, 1, 1, 1, 1}
	b := []float64{2, 2, 2, 2, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.IterTime <= 0 {
		t.Errorf("IterTime = %v, want positive", r.IterTime)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := SimulateProfile(StageProfile{Micro: 1}); err == nil {
		t.Error("want error for empty stages")
	}
	if _, err := SimulateProfile(StageProfile{Fwd: []float64{1}, Bwd: []float64{1, 2}, Micro: 1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := SimulateProfile(StageProfile{Fwd: []float64{1}, Bwd: []float64{1}, Micro: 0}); err == nil {
		t.Error("want error for zero micro-batches")
	}
	if _, err := SimulateProfile(StageProfile{Fwd: []float64{-1}, Bwd: []float64{1}, Micro: 1}); err == nil {
		t.Error("want error for negative time")
	}
}

func TestSimulateMonotoneInLoad(t *testing.T) {
	// Property: increasing any stage's time never decreases the iteration
	// time, and adding micro-batches never decreases it either.
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed uint8, bump uint8) bool {
		n := 2 + int(seed%4)
		m := 2 + int(seed%8)
		f := make([]float64, n)
		b := make([]float64, n)
		for i := range f {
			f[i] = 1 + float64((int(seed)+i*7)%5)
			b[i] = 2 * f[i]
		}
		base, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m})
		if err != nil {
			return false
		}
		j := int(bump) % n
		f[j] += 1.5
		heavier, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m})
		if err != nil {
			return false
		}
		more, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m + 1})
		if err != nil {
			return false
		}
		return heavier.IterTime >= base.IterTime-1e-9 && more.IterTime >= heavier.IterTime-1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSimulateBubbleNonNegative(t *testing.T) {
	prop := func(a, b8, c uint8) bool {
		f := []float64{1 + float64(a%7), 1 + float64(b8%7), 1 + float64(c%7)}
		bw := []float64{2 * f[0], 2 * f[1], 2 * f[2]}
		r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: bw, Comm: 0.05, Micro: 6})
		if err != nil {
			return false
		}
		return r.Bubble() >= -1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPhaseWindows(t *testing.T) {
	f := []float64{1, 1.5, 1.2, 0.8}
	b := []float64{2, 3, 2.4, 1.6}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.05, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	windows := r.PhaseWindows()
	if len(windows) != len(f) {
		t.Fatalf("%d windows for %d stages", len(windows), len(f))
	}
	for x, w := range windows {
		if !(0 <= w[0] && w[0] <= w[1] && w[1] <= r.IterTime) {
			t.Errorf("stage %d: window %v not ordered within makespan %g", x, w, r.IterTime)
		}
		// The window must bracket exactly the stage's 1F1B-phase ops.
		for _, op := range r.Ops[x] {
			in := op.Start >= w[0]-1e-12 && op.End <= w[1]+1e-12
			if (op.Phase == OneFOneB) != in {
				t.Errorf("stage %d op %v%d phase %v vs window %v [%g,%g]", x, op.Kind, op.Micro, op.Phase, w, op.Start, op.End)
			}
		}
	}
	// The last stage has no warmup ops: its warmup window is exactly the
	// startup overhead.
	if last := windows[len(windows)-1]; last[0] != r.Startup {
		t.Errorf("last stage warmup window ends at %g, want startup %g", last[0], r.Startup)
	}
}

// TestValidateFixtures pins StageProfile.Validate's must-accept and
// must-reject cases: NaN and ±Inf in any stage time or the communication
// constant, and a stage×micro-batch product past MaxStageMicro, are
// configuration errors for the validator, the kernel, and the explain path
// alike, not inputs the recurrences silently propagate or size memory by.
func TestValidateFixtures(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	two := []float64{1, 1}
	for _, tc := range []struct {
		name string
		p    StageProfile
		ok   bool
	}{
		{"ok two stages", StageProfile{Fwd: two, Bwd: two, Comm: 0.1, Micro: 4}, true},
		{"ok zero times", StageProfile{Fwd: []float64{0, 0}, Bwd: []float64{0, 0}, Micro: 1}, true},
		{"ok huge finite time", StageProfile{Fwd: []float64{0, math.MaxFloat64 / 8}, Bwd: []float64{0, 1}, Micro: 1}, true},
		{"ok at cap", StageProfile{Fwd: make([]float64, 4), Bwd: make([]float64, 4), Micro: MaxStageMicro / 4}, true},
		{"ok single stage at cap", StageProfile{Fwd: []float64{1}, Bwd: []float64{1}, Micro: MaxStageMicro}, true},
		{"no stages", StageProfile{Micro: 1}, false},
		{"mismatched stages", StageProfile{Fwd: two, Bwd: []float64{1}, Micro: 1}, false},
		{"zero micro", StageProfile{Fwd: two, Bwd: two}, false},
		{"negative micro", StageProfile{Fwd: two, Bwd: two, Micro: -3}, false},
		{"negative time", StageProfile{Fwd: []float64{-1, 1}, Bwd: two, Micro: 4}, false},
		{"negative comm", StageProfile{Fwd: two, Bwd: two, Comm: -0.5, Micro: 4}, false},
		{"fwd NaN", StageProfile{Fwd: []float64{1, nan}, Bwd: two, Micro: 4}, false},
		{"fwd +Inf", StageProfile{Fwd: []float64{inf, 1}, Bwd: two, Micro: 4}, false},
		{"fwd -Inf", StageProfile{Fwd: []float64{-inf, 1}, Bwd: two, Micro: 4}, false},
		{"bwd NaN", StageProfile{Fwd: two, Bwd: []float64{nan, 1}, Micro: 4}, false},
		{"bwd +Inf", StageProfile{Fwd: two, Bwd: []float64{1, inf}, Micro: 4}, false},
		{"bwd -Inf", StageProfile{Fwd: two, Bwd: []float64{1, -inf}, Micro: 4}, false},
		{"comm NaN", StageProfile{Fwd: two, Bwd: two, Comm: nan, Micro: 4}, false},
		{"comm +Inf", StageProfile{Fwd: two, Bwd: two, Comm: inf, Micro: 4}, false},
		{"comm -Inf", StageProfile{Fwd: two, Bwd: two, Comm: -inf, Micro: 4}, false},
		{"single stage NaN", StageProfile{Fwd: []float64{1}, Bwd: []float64{nan}, Micro: 1}, false},
		{"one past cap", StageProfile{Fwd: make([]float64, 4), Bwd: make([]float64, 4), Micro: MaxStageMicro/4 + 1}, false},
		{"huge micro", StageProfile{Fwd: make([]float64, 4), Bwd: make([]float64, 4), Micro: 2_000_000}, false},
		{"max int micro", StageProfile{Fwd: make([]float64, 3), Bwd: make([]float64, 3), Micro: math.MaxInt}, false},
		{"too many stages", StageProfile{Fwd: make([]float64, MaxStageMicro+1), Bwd: make([]float64, MaxStageMicro+1), Micro: 1}, false},
	} {
		err := tc.p.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", tc.name, err)
		}
		if r, err := SimulateProfile(tc.p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: SimulateProfile = (%v, %v), want ErrBadConfig", tc.name, r, err)
		}
		var s Scratch
		if _, err := s.Score(tc.p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Score err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// randomProfile draws a profile for the differential tests. A third of the
// draws use small integer times so that equal-length dependencies tie and
// every tie-break rule is exercised; the stage count often exceeds the
// micro-batch count, and Comm is zero a third of the time.
func randomProfile(rng *rand.Rand) StageProfile {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(12)
	integer := rng.Intn(3) == 0
	draw := func() float64 {
		if integer {
			return float64(rng.Intn(4))
		}
		return rng.Float64() * 3
	}
	p := StageProfile{Fwd: make([]float64, n), Bwd: make([]float64, n), Micro: m}
	for i := range p.Fwd {
		p.Fwd[i], p.Bwd[i] = draw(), draw()
	}
	switch rng.Intn(3) {
	case 0:
	case 1:
		p.Comm = float64(rng.Intn(2))
	default:
		p.Comm = rng.Float64() * 0.5
	}
	return p
}

// TestScoreMatchesReference is the kernel's differential oracle: on random
// profiles the flat kernel must reproduce the reference simulator's
// iteration time, startup, and master stage bit for bit, and the
// materialised Result must reproduce every op time and the critical path.
func TestScoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	singles, short, ties := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		p := randomProfile(rng)
		want, err := referenceSimulate(p)
		if err != nil {
			t.Fatalf("reference %+v: %v", p, err)
		}
		got, err := s.Score(p)
		if err != nil {
			t.Fatalf("Score %+v: %v", p, err)
		}
		if got != want.score() {
			t.Fatalf("profile %+v: Score = %+v, reference %+v", p, got, want.score())
		}
		// The master stage is an argmax over summed dwell, so the sums must
		// agree bit for bit too, not only their argmax on these draws.
		if dwell := refDwell(want); !reflect.DeepEqual(s.dwell, dwell) {
			t.Fatalf("profile %+v: critical-path dwell %v, reference %v", p, s.dwell, dwell)
		}
		if p.Stages() == 1 {
			singles++
		}
		if p.Micro < p.Stages() {
			short++
		}
		if p.Fwd[0] == math.Trunc(p.Fwd[0]) {
			ties++
		}
		if trial%10 != 0 {
			continue
		}
		r, err := SimulateProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Score() != want.score() {
			t.Fatalf("profile %+v: SimulateProfile %+v, reference %+v", p, r.Score(), want.score())
		}
		for x, ops := range want.Ops {
			for i, op := range ops {
				if *r.Ops[x][i] != op.Op {
					t.Fatalf("profile %+v: stage %d op %d = %+v, reference %+v", p, x, i, *r.Ops[x][i], op.Op)
				}
			}
		}
		if len(r.Critical) != len(want.Critical) {
			t.Fatalf("profile %+v: critical path length %d, reference %d", p, len(r.Critical), len(want.Critical))
		}
		for i, op := range want.Critical {
			if *r.Critical[i] != op.Op {
				t.Fatalf("profile %+v: critical op %d = %+v, reference %+v", p, i, *r.Critical[i], op.Op)
			}
		}
	}
	if singles == 0 || short == 0 || ties == 0 {
		t.Errorf("draws missed a class: %d single-stage, %d m<n, %d integer-valued", singles, short, ties)
	}
}

// FuzzScore drives the kernel and the reference simulator with the same
// fuzzed profile: a stage and micro-batch count, a communication constant,
// and one byte per stage time. Byte-valued times make equal-length
// dependencies tie often, so the tie-break rules are exercised; a non-finite
// or negative Comm must be rejected by both.
func FuzzScore(f *testing.F) {
	f.Add(uint8(3), uint8(5), 0.25, []byte{4, 8, 4, 8, 4, 8})
	f.Add(uint8(7), uint8(2), 0.0, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(0), uint8(0), 1.0, []byte{0, 9})
	f.Add(uint8(2), uint8(3), math.NaN(), []byte{3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, stages, micro uint8, comm float64, times []byte) {
		n, m := 1+int(stages%8), 1+int(micro%16)
		p := StageProfile{Fwd: make([]float64, n), Bwd: make([]float64, n), Comm: comm, Micro: m}
		for i := 0; i < n; i++ {
			if 2*i+1 < len(times) {
				p.Fwd[i], p.Bwd[i] = float64(times[2*i])/16, float64(times[2*i+1])/16
			}
		}
		var s Scratch
		got, err := s.Score(p)
		want, refErr := referenceSimulate(p)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("profile %+v: Score error %v, reference error %v", p, err, refErr)
		}
		if err != nil {
			if !errors.Is(err, errdefs.ErrBadConfig) {
				t.Fatalf("profile %+v: Score error %v, want ErrBadConfig", p, err)
			}
			return
		}
		if got != want.score() {
			t.Fatalf("profile %+v: Score = %+v, reference %+v", p, got, want.score())
		}
	})
}

// BenchmarkScore times the kernel on a warm scratch: an 8-stage profile
// of 64 micro-batches, the depth and micro-batch count of a mid-sized
// planner candidate.
func BenchmarkScore(b *testing.B) {
	p := StageProfile{
		Fwd: []float64{1, 1.5, 1, 1.2, 0.9, 1.1, 1, 1.3}, Bwd: []float64{2, 3, 2, 2.4, 1.8, 2.2, 2, 2.6},
		Comm: 0.05, Micro: 64,
	}
	var s Scratch
	if _, err := s.Score(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Score(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScoreAllocationFree pins the kernel at zero allocations once its
// scratch has grown to the profile.
func TestScoreAllocationFree(t *testing.T) {
	p := StageProfile{
		Fwd: []float64{1, 1.5, 1, 1.2, 0.9, 1.1, 1, 1.3}, Bwd: []float64{2, 3, 2, 2.4, 1.8, 2.2, 2, 2.6},
		Comm: 0.05, Micro: 64,
	}
	var s Scratch
	if _, err := s.Score(p); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = s.Score(p) }); allocs != 0 {
		t.Errorf("Score allocates %v times per call, want 0", allocs)
	}
}

// The reference simulator below is the Op-pointer worklist sweep the flat
// kernel replaced, kept verbatim apart from the refOp/refResult types that
// carry its bookkeeping, opStart taking comm directly now that Result no
// longer copies it, and the split of the master-stage argmax from the
// dwell sums it ranks (refDwell), which the oracle compares directly. It is
// the oracle of TestScoreMatchesReference and FuzzScore.

type refOp struct {
	Op

	// pos is the op's index within its stage's execution order.
	pos int
	// critPred encodes which dependency determined Start: -1 none,
	// 0 same-stage predecessor, 1 cross-stage predecessor.
	critPred int
}

type refResult struct {
	IterTime, Startup float64
	Master            int
	Critical          []*refOp
	Ops               [][]*refOp
}

func (r *refResult) score() Score {
	return Score{IterTime: r.IterTime, Startup: r.Startup, Master: r.Master}
}

func referenceSimulate(p StageProfile) (*refResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f, b, comm, m := p.Fwd, p.Bwd, p.Comm, p.Micro
	n := len(f)

	r := &refResult{}
	r.Ops = refBuildSchedule(n, m)

	// fwdAt[x][µ] / bwdAt[x][µ] index ops for cross-stage dependencies.
	fwdAt := make([][]*refOp, n)
	bwdAt := make([][]*refOp, n)
	for x := 0; x < n; x++ {
		fwdAt[x] = make([]*refOp, m)
		bwdAt[x] = make([]*refOp, m)
		for _, op := range r.Ops[x] {
			if op.Kind == Fwd {
				fwdAt[x][op.Micro] = op
			} else {
				bwdAt[x][op.Micro] = op
			}
		}
	}

	done := make([]int, n) // per-stage count of finalized ops
	total := 0
	for _, ops := range r.Ops {
		total += len(ops)
	}
	finalized := 0
	for finalized < total {
		progressed := false
		for x := 0; x < n; x++ {
			for done[x] < len(r.Ops[x]) {
				op := r.Ops[x][done[x]]
				ready, start, critPred := refOpStart(op, r, fwdAt, bwdAt, done, comm)
				if !ready {
					break
				}
				op.Start = start
				op.critPred = critPred
				if op.Kind == Fwd {
					op.End = start + f[x]
				} else {
					op.End = start + b[x]
				}
				done[x]++
				finalized++
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("%w: sim: dependency deadlock (internal error)", errdefs.ErrDeadlock)
		}
	}

	last := r.Ops[0][len(r.Ops[0])-1]
	r.IterTime = last.End
	if first := refFirstOp(r.Ops[n-1]); first != nil {
		r.Startup = first.Start
	}
	r.Critical = refCriticalPath(last, r, fwdAt, bwdAt)
	r.Master = refMasterStage(r)
	return r, nil
}

func refBuildSchedule(n, m int) [][]*refOp {
	ops := make([][]*refOp, n)
	for x := 0; x < n; x++ {
		warm := n - 1 - x
		if warm > m {
			warm = m
		}
		var list []*refOp
		for µ := 0; µ < warm; µ++ {
			list = append(list, &refOp{Op: Op{Stage: x, Micro: µ, Kind: Fwd, Phase: Warmup, Block: -1}})
		}
		// 1F1B blocks: block y pairs F(µ=warm+y) with B(µ=y).
		blocks := m - warm
		for y := 0; y < blocks; y++ {
			list = append(list, &refOp{Op: Op{Stage: x, Micro: warm + y, Kind: Fwd, Phase: OneFOneB, Block: y}})
			list = append(list, &refOp{Op: Op{Stage: x, Micro: y, Kind: Bwd, Phase: OneFOneB, Block: y}})
		}
		// Cooldown backwards, renumbered in reverse order (paper Fig. 6):
		// the final backward gets index 0.
		for µ := blocks; µ < m; µ++ {
			list = append(list, &refOp{Op: Op{Stage: x, Micro: µ, Kind: Bwd, Phase: Cooldown, Block: m - 1 - µ}})
		}
		for i, op := range list {
			op.pos = i
		}
		ops[x] = list
	}
	return ops
}

func refOpStart(op *refOp, r *refResult, fwdAt, bwdAt [][]*refOp, done []int, comm float64) (ready bool, start float64, critPred int) {
	n := len(r.Ops)
	var same, cross *refOp
	if op.pos > 0 {
		same = r.Ops[op.Stage][op.pos-1]
		if done[op.Stage] <= same.pos {
			return false, 0, 0
		}
	}
	hasComm := false
	if op.Kind == Fwd && op.Stage > 0 {
		cross = fwdAt[op.Stage-1][op.Micro]
		hasComm = true
	} else if op.Kind == Bwd && op.Stage < n-1 {
		cross = bwdAt[op.Stage+1][op.Micro]
		hasComm = true
	}
	if cross != nil && done[cross.Stage] <= cross.pos {
		return false, 0, 0
	}

	start, critPred = 0, -1
	if same != nil {
		start, critPred = same.End, 0
	}
	if cross != nil {
		if cross.End > start || (cross.End == start && op.Kind == Bwd) {
			start, critPred = cross.End, 1
		}
	}
	if hasComm {
		start += comm
	}
	return true, start, critPred
}

func refFirstOp(ops []*refOp) *refOp {
	if len(ops) == 0 {
		return nil
	}
	return ops[0]
}

func refCriticalPath(last *refOp, r *refResult, fwdAt, bwdAt [][]*refOp) []*refOp {
	var rev []*refOp
	for op := last; op != nil; {
		rev = append(rev, op)
		switch op.critPred {
		case 0:
			op = r.Ops[op.Stage][op.pos-1]
		case 1:
			if op.Kind == Fwd {
				op = fwdAt[op.Stage-1][op.Micro]
			} else {
				op = bwdAt[op.Stage+1][op.Micro]
			}
		default:
			op = nil
		}
	}
	// Reverse into chronological order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func refMasterStage(r *refResult) int {
	dwell := refDwell(r)
	best, bestT := 0, math.Inf(-1)
	for s, t := range dwell {
		if t >= bestT {
			best, bestT = s, t
		}
	}
	return best
}

func refDwell(r *refResult) []float64 {
	dwell := make([]float64, len(r.Ops))
	any := false
	for _, op := range r.Critical {
		if op.Phase == OneFOneB {
			dwell[op.Stage] += op.End - op.Start
			any = true
		}
	}
	if !any {
		for _, op := range r.Critical {
			dwell[op.Stage] += op.End - op.Start
		}
	}
	return dwell
}
