// Package core implements the AutoPipe Planner (paper §III-B): the heuristic
// search that starts from the balanced dynamic-programming seed of
// Algorithm 1 and refines it by flattening Cooldown-phase bubbles (Eq. (1))
// and by shifting the master stage forward, evaluating every candidate with
// the analytic pipeline simulator.
package core

import (
	"time"

	"autopipe/internal/model"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

// Candidate couples a partition with its simulated outcome.
type Candidate struct {
	Partition partition.Partition
	// Score is the simulated outcome the search ranks the partition by.
	Score sim.Score
	// Sim is the full simulation. Searches score candidates without it and
	// materialise it only for the candidates a PlanResult returns; it is nil
	// on every other candidate.
	Sim *sim.Result
}

// Telemetry records the search effort of one fixed-depth planner run: how
// many candidates the simulator assessed, how many improved the incumbent,
// the convergence curve, and the wall-clock spent in each phase of the
// heuristic (Algorithm 1 seed, step-2 cooldown flattening, step-3 master
// moves).
type Telemetry struct {
	// Candidates counts partition schemes the simulator evaluated.
	Candidates int
	// Accepted counts evaluations that improved the best iteration time.
	Accepted int
	// Convergence holds the best predicted iteration time after each
	// evaluation; its last element equals Final.
	Convergence []float64
	// Final is the best predicted iteration time in seconds.
	Final float64
	// SeedTime covers the Algorithm 1 dynamic-programming seed (including
	// its simulation); AdjustTime the step-2 suffix redistribution;
	// MoveTime the step-3 master-move generation and evaluation.
	SeedTime   time.Duration
	AdjustTime time.Duration
	MoveTime   time.Duration
}

// Publish exports the telemetry into an obs registry under the prefix, e.g.
// "planner.p4.candidates".
func (t *Telemetry) Publish(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".candidates").Add(float64(t.Candidates))
	reg.Counter(prefix + ".accepted").Add(float64(t.Accepted))
	reg.Gauge(prefix + ".final_iter_s").Set(t.Final)
	reg.Gauge(prefix + ".seed_s").Set(t.SeedTime.Seconds())
	reg.Gauge(prefix + ".adjust_s").Set(t.AdjustTime.Seconds())
	reg.Gauge(prefix + ".move_s").Set(t.MoveTime.Seconds())
	h := reg.Histogram(prefix + ".convergence_s")
	for _, v := range t.Convergence {
		h.Observe(v)
	}
}

// PlanResult is the outcome of a fixed-depth heuristic search.
type PlanResult struct {
	Best Candidate
	// Evaluated counts how many partition schemes the simulator assessed —
	// the search-effort metric behind the paper's Fig. 12 comparison. It
	// always equals Telemetry.Candidates.
	Evaluated int
	// Seed is the Algorithm 1 starting point, kept for ablations.
	Seed Candidate
	// Telemetry details the search effort behind Best.
	Telemetry Telemetry
}

// evaluate simulates one partition in full, without the engine's cache: the
// materialisation of a returned candidate.
func evaluate(bl *model.Blocks, part partition.Partition, m int) (Candidate, error) {
	r, err := sim.SimulateProfile(part.Profile(bl, m))
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{Partition: part, Score: r.Score(), Sim: r}, nil
}

// adjustAfterMaster redistributes the blocks after master stage i so that
// for every s > i the cumulative load satisfies Eq. (1):
//
//	sum_{j=i+1..s} (f_j + b_j) <= (s - i) * b_i
//
// which removes the bubble in the master stage's Cooldown phase (paper
// Fig. 7(c)). It packs the suffix greedily left-to-right against the
// cumulative allowance while keeping every stage non-empty.
func adjustAfterMaster(bl *model.Blocks, part partition.Partition, i int) (partition.Partition, bool) {
	p := part.Stages()
	if i >= p-1 {
		return part, false
	}
	_, bTimes := part.StageTimes(bl)
	bi := bTimes[i]

	start := part.Bounds[i+1]
	end := part.Bounds[p]
	nBlocks := end - start
	nStages := p - i - 1
	if nBlocks < nStages {
		return part, false
	}

	out := part.Clone()
	cum := 0.0
	idx := start
	for s := 1; s <= nStages; s++ { // s-th stage after the master
		remainingStages := nStages - s
		allowance := float64(s) * bi
		// Take at least one block, then keep taking while the cumulative
		// weight stays within the allowance and enough blocks remain for
		// the later stages.
		take := 1
		cum += bl.List[idx].Weight()
		for idx+take < end-remainingStages {
			next := bl.List[idx+take].Weight()
			if cum+next > allowance {
				break
			}
			cum += next
			take++
		}
		if remainingStages == 0 {
			// Last stage absorbs whatever is left.
			take = end - idx
		}
		idx += take
		out.Bounds[i+1+s] = idx
	}
	if out.Equal(part) {
		return part, false
	}
	return out, true
}

// masterMoves generates the paper's step-3 candidates: shift the master
// stage forward by moving its first block to stage i-1 or its last block to
// stage i+1, each with and without re-running Algorithm 1 (a backtrack from
// the search's DP table) on the prefix up to and including the stage whose
// size changed. Candidates — at most maxMasterMoves — are appended to out,
// so wave-loop callers can reuse a buffer.
func masterMoves(part partition.Partition, i int, tab *partition.Table, out []partition.Partition) []partition.Partition {
	p := part.Stages()

	// Move the first block of stage i to stage i-1.
	if i > 0 && part.Size(i) > 1 {
		moved := part.Clone()
		moved.Bounds[i]++
		out = append(out, moved)
		// Re-balance stages 0..i-1 over the grown prefix.
		out = appendRebalanced(out, moved, i, tab)
	}

	// Move the last block of stage i to stage i+1.
	if i < p-1 && part.Size(i) > 1 {
		moved := part.Clone()
		moved.Bounds[i+1]--
		out = append(out, moved)
		// Re-balance stages 0..i over the shrunk prefix.
		out = appendRebalanced(out, moved, i+1, tab)
	}
	return out
}

// appendRebalanced appends moved with its first stages re-balanced over the
// block prefix they cover, unless that leaves moved unchanged.
func appendRebalanced(out []partition.Partition, moved partition.Partition, stages int, tab *partition.Table) []partition.Partition {
	reb := moved.Clone()
	if err := tab.Split(reb.Bounds[stages], stages, reb.Bounds[:stages+1]); err == nil && !reb.Equal(moved) {
		out = append(out, reb)
	}
	return out
}
