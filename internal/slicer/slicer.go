// Package slicer implements the AutoPipe Slicer (paper §III-C): it halves
// the pipeline startup overhead by splitting the leading warmup micro-batches
// evenly in two and rescheduling their forward passes, and it solves — via
// Algorithm 2 — the smallest number of micro-batches that must be split so
// the sliced warmup never stalls the 1F1B phase.
//
// Slicing a micro-batch doubles its forward communication count and can
// block at the last warmup forward of each stage (the downstream device is
// busy); the paper's fix, reproduced by the schedule builder, is to cancel
// the first half's communication there and aggregate it with the second
// half's. Backward passes are never sliced: the two halves re-join before
// the 1F1B phase, so memory consumption and convergence are untouched.
package slicer

import (
	"fmt"

	"autopipe/internal/sim"
)

// Plan is the slicing decision for a partition.
type Plan struct {
	// NumSliced is the number of leading micro-batches to split in half.
	NumSliced int
	// Stages and Micro record the geometry the plan was solved for.
	Stages int
	Micro  int
	// Rounds counts the Algorithm 2 while-loop iterations taken, and
	// Converged reports whether the no-stall condition was met (false means
	// every warmup micro-batch got split and the search exhausted itself).
	Rounds    int
	Converged bool
}

// SolveProfile runs Algorithm 2 on a stage profile.
//
// The algorithm simulates the sliced warmup: endt[i][0] and endt[i][1] track
// when stage i finishes the first and second halves of the split
// micro-batches, startt approximates when each stage begins its first 1F1B
// forward, and mb grows until the first unbroken micro-batch on stage 0
// would start no earlier than the second half of the last split one ends —
// i.e. until slicing more micro-batches could no longer stall the pipeline.
//
//hot:solved once per candidate plan (Algorithm 2)
func SolveProfile(prof sim.StageProfile) (Plan, error) {
	if err := prof.Validate(); err != nil {
		return Plan{}, fmt.Errorf("slicer: %w", err)
	}
	f, b, comm, m := prof.Fwd, prof.Bwd, prof.Comm, prof.Micro
	p := len(f)
	if p == 1 {
		// A single stage has no startup overhead to hide.
		return Plan{NumSliced: 0, Stages: p, Micro: m, Converged: true}, nil
	}

	// startt[k]: start time of the first 1F1B forward for stage p-1-k,
	// following Algorithm 2 lines 4-15. The first micro-batch's forward
	// halves ripple down the pipeline (f_i/2 + Comm/2 per hop), the last
	// stage computes its half and backward, and backwards ripple up.
	startt := make([]float64, p)
	tempt := 0.0
	for i := 0; i <= p-2; i++ {
		tempt += f[i]/2 + comm/2
	}
	tempt += f[p-1] / 2
	for i := p - 1; i >= 1; i-- {
		tempt += b[i] + comm
		startt[p-1-i] = tempt
	}
	tempt += b[0]
	startt[p-1] = tempt

	// endt[i][j]: end time of half j of the current split micro-batch on
	// stage i (Algorithm 2 lines 17-28). endt has a phantom row p so the
	// i+1 back-pressure lookup is always valid. It deliberately accumulates
	// across while-loop rounds: each round advances every stage past one
	// more split micro-batch, exactly as in the paper's pseudocode.
	endt := make([][2]float64, p+1)

	mb := 1
	rounds := 0
	for mb < p && mb < m {
		rounds++
		for i := 0; i <= p-mb; i++ {
			for j := 0; j <= 1; j++ {
				// The half follows its sibling on the same stage...
				endt[i][j] = endt[i][(j+1)%2] + f[i]/2
				if i > 0 {
					// ...and the matching half upstream.
					if v := endt[i-1][j] + f[i-1]/2; v > endt[i][j] {
						endt[i][j] = v
					}
				}
				if i != p-1 {
					endt[i][j] += comm / 2
				}
				// Back-pressure: a busy downstream stage delays the hand-off
				// (the blockage the aggregated communication works around).
				if v := endt[i+1][(j+1)%2]; v > endt[i][j] {
					endt[i][j] = v
				}
			}
		}
		// By when must stage 0 start the first unbroken micro-batch for it
		// to reach every stage just in time for the 1F1B phase (lines
		// 29-33)? Back-propagating the scheduled 1F1B start through the
		// forward chain gives the deadline tempt. Stage 0 becomes free at
		// endt[0][1]. Once the deadline is no earlier than that ("the start
		// time of the unbroken micro-batch is greater than or equal to the
		// end time of the second half of the split micro-batch", §III-C),
		// the unbroken micro-batch cannot stall the pipeline and mb is the
		// answer. (The pseudocode as printed compares with ≤, which
		// contradicts the prose and never converges for checkpointed
		// backward times; we follow the prose.)
		tempt = startt[mb-1]
		for i := p - 1 - mb; i >= 1; i-- {
			tempt -= f[i] + comm
		}
		tempt -= f[0]
		if tempt >= endt[0][1] {
			return Plan{NumSliced: mb, Stages: p, Micro: m, Rounds: rounds, Converged: true}, nil
		}
		mb++
	}
	// Every warmup micro-batch is already split; slicing further is
	// inoperative for startup reduction (paper §III-C).
	return Plan{NumSliced: mb, Stages: p, Micro: m, Rounds: rounds}, nil
}
