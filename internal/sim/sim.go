// Package sim implements the paper's pipeline simulator (§III-B-1): given
// per-stage forward/backward times and a communication constant it computes
// the start time of every operation of a synchronous 1F1B pipeline
// iteration, the iteration time, the startup overhead, and reconstructs the
// unique critical path and master stage.
//
// The recurrences follow the paper exactly. For a non-first stage a forward
// start is max(upstream forward end, previous same-stage op end) + Comm; for
// a non-last stage a backward start is max(downstream backward end, previous
// same-stage op end) + Comm. The paper estimates the Warmup phase with the
// total forward time of one micro-batch because a balanced partition keeps
// the first micro-batch from choking; this implementation evaluates Warmup
// with the same recurrences, which coincides with the estimate whenever that
// assumption holds (a property the tests check).
package sim

import (
	"fmt"
	"math"
	"strings"

	"autopipe/internal/errdefs"
)

// StageProfile is the value type every timing-level entry point consumes: the
// per-stage forward and backward wall times of a partition, the cross-stage
// communication constant, and the micro-batch count of one iteration. It
// replaces the positional (f, b []float64, comm, micro) signature that used
// to be duplicated across Simulate, the Slicer, and the planner.
type StageProfile struct {
	// Fwd and Bwd are the per-stage forward/backward times in seconds (the
	// paper's f_x and b_x).
	Fwd []float64
	Bwd []float64
	// Comm is the activation hand-off time between adjacent stages.
	Comm float64
	// Micro is the number of micro-batches per iteration.
	Micro int
}

// Stages returns the pipeline depth of the profile.
func (p StageProfile) Stages() int { return len(p.Fwd) }

// MaxStageMicro caps Stages()×Micro, the number of forward/backward op
// pairs one simulation lays out. The kernel's scratch and the materialised
// op list both grow linearly with it, so the cap bounds what one profile
// can make the simulator, the slicer, or a daemon request allocate (about
// 40 MiB for a materialised Result at the cap) while leaving every
// paper-scale pipeline — 64 stages of 4096 micro-batches — in range.
const MaxStageMicro = 1 << 18

// Validate reports the first structural problem with the profile: missing
// or mismatched stage times, a micro-batch count that is not positive or
// takes Stages()×Micro past MaxStageMicro, or a stage time or communication
// constant that is negative, NaN, or infinite. Errors wrap
// errdefs.ErrBadConfig.
func (p StageProfile) Validate() error {
	n := len(p.Fwd)
	if n == 0 || len(p.Bwd) != n {
		return fmt.Errorf("%w: sim: need matching non-empty stage times, got %d fwd / %d bwd",
			errdefs.ErrBadConfig, n, len(p.Bwd))
	}
	if p.Micro <= 0 {
		return fmt.Errorf("%w: sim: micro-batch count must be positive, got %d", errdefs.ErrBadConfig, p.Micro)
	}
	if p.Micro > MaxStageMicro/n {
		return fmt.Errorf("%w: sim: %d stages × %d micro-batches exceeds the limit of %d",
			errdefs.ErrBadConfig, n, p.Micro, MaxStageMicro)
	}
	for i := 0; i < n; i++ {
		if !validTime(p.Fwd[i]) || !validTime(p.Bwd[i]) {
			return fmt.Errorf("%w: sim: stage %d times must be finite and non-negative, got fwd %g, bwd %g",
				errdefs.ErrBadConfig, i, p.Fwd[i], p.Bwd[i])
		}
	}
	if !validTime(p.Comm) {
		return fmt.Errorf("%w: sim: communication constant must be finite and non-negative, got %g", errdefs.ErrBadConfig, p.Comm)
	}
	return nil
}

// validTime reports whether x is a usable duration: finite and
// non-negative. NaN fails the comparison.
func validTime(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Phase labels the pipeline phase an operation belongs to (paper Fig. 5).
type Phase int

const (
	Warmup Phase = iota
	OneFOneB
	Cooldown
)

var phaseNames = [...]string{"Warmup", "1F1B", "Cooldown"}

func (p Phase) String() string { return phaseNames[p] }

// OpKind distinguishes forward from backward operations.
type OpKind int

const (
	Fwd OpKind = iota
	Bwd
)

func (k OpKind) String() string {
	if k == Fwd {
		return "F"
	}
	return "B"
}

// Op is one simulated compute operation.
type Op struct {
	Stage int
	Micro int
	Kind  OpKind
	Phase Phase
	// Block is the renumbered block index within the 1F1B phase (paper
	// Fig. 6), or the reverse-renumbered index within Cooldown; -1 in Warmup.
	Block      int
	Start, End float64
}

// Result is the outcome of simulating one pipeline iteration.
type Result struct {
	// IterTime is the makespan of the iteration (Warmup + 1F1B + Cooldown),
	// the quantity the partitioner minimizes.
	IterTime float64
	// Startup is the pipeline startup overhead: the moment the last stage
	// has received the activations of the first micro-batch and can begin
	// computing (paper §II-B).
	Startup float64
	// Master is the master stage: the stage the critical path passes
	// through in the 1F1B phase (paper §III-B).
	Master int
	// Critical is the unique critical path from the first forward to the
	// end of the last backward, tie-broken toward the last pipeline stage.
	Critical []*Op
	// Ops holds every simulated op, per stage, in execution order.
	Ops [][]*Op
}

// Score returns the scalar outcome of the simulation.
func (r *Result) Score() Score {
	return Score{IterTime: r.IterTime, Startup: r.Startup, Master: r.Master}
}

// SimulateProfile runs one synchronous 1F1B iteration for the profile and
// materialises every op: the explain/report path. Searches that only rank
// candidates call Scratch.Score, which runs the same recurrences without
// building the op list.
func SimulateProfile(p StageProfile) (*Result, error) {
	var s Scratch
	sc, err := s.Score(p)
	if err != nil {
		return nil, err
	}
	return s.materialise(sc), nil
}

// Score is the scalar outcome of a simulation: what a partition search
// ranks candidates by, and all a caller that needs no op list reads.
type Score struct {
	// IterTime is the iteration makespan (Result.IterTime).
	IterTime float64
	// Startup is the pipeline startup overhead (Result.Startup).
	Startup float64
	// Master is the master stage (Result.Master).
	Master int
}

// Scratch is the reusable working memory of the simulation kernel: flat
// per-op arrays indexed stage*2m + pos, where pos is the op's index in its
// stage's execution order. Once its buffers have grown to the largest
// profile scored, Score allocates nothing. A Scratch must not be used by two
// goroutines at once.
type Scratch struct {
	n, m       int
	start, end []float64
	// crit records which dependency determined each op's start: -1 none,
	// 0 the same-stage predecessor, 1 the cross-stage predecessor.
	crit []int8
	// done counts the finalized ops of each stage.
	done  []int
	dwell []float64
	// path is the critical path as flat op indices, last op first.
	path []int
}

// Score runs the 1F1B recurrences for the profile and returns its iteration
// time, startup overhead, and master stage, bit-identical to
// SimulateProfile's.
//
// Stages are evaluated round-robin, each as far as its cross-stage
// dependencies are finalized; every such dependency points to an op that
// runs earlier in a valid pipeline execution, so the sweep reaches every op
// and each op's start is a function of its two dependencies only.
//
//hot:scores every candidate partition of a planner search
func (s *Scratch) Score(p StageProfile) (Score, error) {
	if err := p.Validate(); err != nil {
		return Score{}, err
	}
	f, b, comm, m := p.Fwd, p.Bwd, p.Comm, p.Micro
	n := len(f)
	s.reset(n, m)
	per := 2 * m
	starts, ends, crits, done := s.start, s.end, s.crit, s.done
	for finalized := 0; finalized < n*per; {
		progressed := false
		for x := 0; x < n; x++ {
			for done[x] < per {
				pos := done[x]
				i := x*per + pos
				kind, micro, _, _ := opAt(n, m, x, pos)
				// The same-stage predecessor is always finalized: it is
				// the op the stage finished last.
				start, crit := 0.0, int8(-1)
				if pos > 0 {
					start, crit = ends[i-1], 0
				}
				if y, c := s.cross(kind, x, micro); y >= 0 {
					if done[y] <= c {
						break
					}
					// Tie-break toward the path "closest to the last
					// pipeline stage" (paper Fig. 4): a backward's cross
					// dependency comes from a higher stage, so it wins
					// ties; a forward's comes from a lower stage, so the
					// same-stage predecessor keeps ties.
					if ce := ends[y*per+c]; ce > start || (ce == start && kind == Bwd) {
						start, crit = ce, 1
					}
					// The paper charges Comm on every cross-stage op
					// regardless of which dependency dominated (the
					// receive occupies the stream).
					start += comm
				}
				starts[i], crits[i] = start, crit
				if kind == Fwd {
					ends[i] = start + f[x]
				} else {
					ends[i] = start + b[x]
				}
				done[x]++
				finalized++
				progressed = true
			}
		}
		if !progressed {
			return Score{}, fmt.Errorf("%w: sim: dependency deadlock (internal error)", errdefs.ErrDeadlock)
		}
	}

	// Backtrack the recorded argmax decisions from the final op, the last
	// backward of stage 0.
	s.path = s.path[:0]
	for i := per - 1; i >= 0; {
		s.path = append(s.path, i)
		switch s.crit[i] {
		case 0:
			i--
		case 1:
			x := i / per
			kind, micro, _, _ := opAt(n, m, x, i%per)
			y, c := s.cross(kind, x, micro)
			i = y*per + c
		default:
			i = -1
		}
	}
	return Score{IterTime: s.end[per-1], Startup: s.start[(n-1)*per], Master: s.master()}, nil
}

// reset sizes the scratch for an n-stage, m-micro-batch profile.
func (s *Scratch) reset(n, m int) {
	s.n, s.m = n, m
	ops := 2 * n * m
	if cap(s.start) < ops {
		s.start = make([]float64, ops)
		s.end = make([]float64, ops)
		s.crit = make([]int8, ops)
	}
	s.start, s.end, s.crit = s.start[:ops], s.end[:ops], s.crit[:ops]
	if cap(s.done) < n {
		s.done = make([]int, n)
		s.dwell = make([]float64, n)
	}
	s.done, s.dwell = s.done[:n], s.dwell[:n]
	clear(s.done)
}

// cross returns the stage and position of the cross-stage dependency of the
// kind op of micro-batch micro on stage x, or stage -1 when it has none: a
// forward waits for the upstream forward, a backward for the downstream
// backward.
func (s *Scratch) cross(kind OpKind, x, micro int) (stage, pos int) {
	if kind == Fwd {
		if x == 0 {
			return -1, 0
		}
		return x - 1, fwdPos(s.n, s.m, x-1, micro)
	}
	if x == s.n-1 {
		return -1, 0
	}
	return x + 1, bwdPos(s.n, s.m, x+1, micro)
}

// master returns the stage whose compute dominates the critical path in the
// 1F1B phase: the stage with the heaviest load, which drives succeeding
// stages through its forwards and preceding stages through its backwards.
// Dwell is summed in chronological path order.
//
//hot:runs once per scored candidate, after the recurrences
func (s *Scratch) master() int {
	per := 2 * s.m
	clear(s.dwell)
	any := false
	for k := len(s.path) - 1; k >= 0; k-- {
		i := s.path[k]
		if _, _, phase, _ := opAt(s.n, s.m, i/per, i%per); phase == OneFOneB {
			s.dwell[i/per] += s.end[i] - s.start[i]
			any = true
		}
	}
	if !any {
		// Degenerate pipelines (m < n) may have an empty 1F1B phase; fall
		// back to the heaviest critical-path stage overall.
		for k := len(s.path) - 1; k >= 0; k-- {
			i := s.path[k]
			s.dwell[i/per] += s.end[i] - s.start[i]
		}
	}
	best, bestT := 0, math.Inf(-1)
	for x, t := range s.dwell {
		// Ties resolve toward the last stage, matching the critical-path
		// uniqueness rule.
		if t >= bestT {
			best, bestT = x, t
		}
	}
	return best
}

// The 1F1B execution order of stage x (paper Fig. 5/6): warm = min(n-1-x, m)
// warmup forwards, then blocks = m-warm 1F1B blocks — block y pairs
// F(warm+y) with B(y) — then the remaining backwards of the cooldown,
// renumbered in reverse order so the final backward gets block index 0.

// opAt decodes position pos of stage x's execution order.
func opAt(n, m, x, pos int) (kind OpKind, micro int, phase Phase, block int) {
	warm := min(n-1-x, m)
	switch rel := pos - warm; {
	case rel < 0:
		return Fwd, pos, Warmup, -1
	case rel < 2*(m-warm):
		if rel%2 == 0 {
			return Fwd, warm + rel/2, OneFOneB, rel / 2
		}
		return Bwd, rel / 2, OneFOneB, rel / 2
	default:
		micro = pos - m
		return Bwd, micro, Cooldown, m - 1 - micro
	}
}

// fwdPos returns the position of micro-batch micro's forward on stage x.
func fwdPos(n, m, x, micro int) int {
	warm := min(n-1-x, m)
	if micro < warm {
		return micro
	}
	return warm + 2*(micro-warm)
}

// bwdPos returns the position of micro-batch micro's backward on stage x.
func bwdPos(n, m, x, micro int) int {
	warm := min(n-1-x, m)
	if micro < m-warm {
		return warm + 2*micro + 1
	}
	return m + micro
}

// materialise builds the full Result of the profile s last scored.
func (s *Scratch) materialise(sc Score) *Result {
	n, per := s.n, 2*s.m
	r := &Result{IterTime: sc.IterTime, Startup: sc.Startup, Master: sc.Master, Ops: make([][]*Op, n)}
	slab := make([]Op, n*per)
	ptrs := make([]*Op, n*per)
	for i := range slab {
		x, pos := i/per, i%per
		kind, micro, phase, block := opAt(n, s.m, x, pos)
		slab[i] = Op{Stage: x, Micro: micro, Kind: kind, Phase: phase, Block: block, Start: s.start[i], End: s.end[i]}
		ptrs[i] = &slab[i]
	}
	for x := range r.Ops {
		r.Ops[x] = ptrs[x*per : (x+1)*per : (x+1)*per]
	}
	r.Critical = make([]*Op, len(s.path))
	for k, i := range s.path {
		r.Critical[len(s.path)-1-k] = ptrs[i]
	}
	return r
}

// PhaseWindows returns, per stage, the wall-clock boundaries
// [warmup-end, steady-end] of the analytic timeline: the start of the
// stage's first 1F1B-phase op and the end of its last. A stage with an empty
// 1F1B phase (m < n) collapses the steady window at the start of its first
// Cooldown op. The executor consumes these windows
// (exec.Result.MetricsWithWindows) to attribute measured bubbles on the same
// phase boundaries the planner reasoned about — the analytic counterpart of
// the paper's Fig. 5 phase split.
func (r *Result) PhaseWindows() [][2]float64 {
	out := make([][2]float64, len(r.Ops))
	for x, ops := range r.Ops {
		t1, t2 := r.IterTime, r.IterTime
		var firstSteady, lastSteady, firstCool *Op
		for _, op := range ops {
			switch op.Phase {
			case OneFOneB:
				if firstSteady == nil {
					firstSteady = op
				}
				lastSteady = op
			case Cooldown:
				if firstCool == nil {
					firstCool = op
				}
			}
		}
		switch {
		case firstSteady != nil:
			t1, t2 = firstSteady.Start, lastSteady.End
		case firstCool != nil:
			t1, t2 = firstCool.Start, firstCool.Start
		}
		out[x] = [2]float64{t1, t2}
	}
	return out
}

// WarmupEstimate returns the paper's closed-form Warmup overhead estimate:
// the total forward time of one micro-batch plus the cross-stage hops.
func WarmupEstimate(f []float64, comm float64) float64 {
	var t float64
	for _, fx := range f {
		t += fx
	}
	return t + float64(len(f)-1)*comm
}

// Bubble returns the total idle time across stages within the iteration
// (makespan*stages minus busy time), a convenience metric for tests and
// ablations.
func (r *Result) Bubble() float64 {
	var busy float64
	for _, ops := range r.Ops {
		for _, op := range ops {
			busy += op.End - op.Start
		}
	}
	return r.IterTime*float64(len(r.Ops)) - busy
}

// Timeline renders a compact text view of the iteration for debugging.
func (r *Result) Timeline() string {
	var sb strings.Builder
	for x, ops := range r.Ops {
		fmt.Fprintf(&sb, "stage %d:", x)
		for _, op := range ops {
			fmt.Fprintf(&sb, " %s%d@%.2f", op.Kind, op.Micro, op.Start*1e3)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
