package autopipe

import (
	"context"

	"autopipe/internal/core"
	"autopipe/internal/obs"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

// StageProfile bundles the per-stage forward/backward times, the
// communication constant, and the micro-batch count — the quadruple that the
// simulator, the Slicer, and the planner engine all consume. It replaces the
// positional (f, b []float64, comm float64, micro int) signatures of the
// earlier API.
type StageProfile = sim.StageProfile

// PlanResult is the outcome of a fixed-depth partition search: the best
// candidate with its simulation, the Algorithm 1 seed, and the search
// telemetry.
type PlanResult = core.PlanResult

// Registry collects metrics (counters, gauges, histograms); pass one to a
// Planner via WithObserver to receive search telemetry.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Planner is the AutoPipe planning engine: balanced sub-layer partitioning
// (Algorithm 1 seed plus heuristic master-stage refinement), analytic 1F1B
// simulation of every candidate, and warmup micro-batch slicing
// (Algorithm 2). The zero value — NewPlanner() — searches with one worker
// per CPU and no budget; a Planner is immutable after construction and safe
// for concurrent use.
//
// The plan-space search fans out across pipeline depths and candidate
// partitions on a worker pool, but its result is deterministic: the same
// inputs yield byte-identical plans at every parallelism setting.
type Planner struct {
	opts core.Options
}

// PlannerOption configures a Planner at construction.
type PlannerOption func(*Planner)

// WithParallelism sets the worker-pool size for candidate evaluation; n <= 0
// means one worker per CPU. Parallelism changes only planning speed, never
// the plan.
func WithParallelism(n int) PlannerOption {
	return func(p *Planner) { p.opts.Parallelism = n }
}

// WithObserver directs search telemetry (per-depth candidate counts,
// convergence curves, phase timings, cache statistics) into reg.
func WithObserver(reg *Registry) PlannerOption {
	return func(p *Planner) { p.opts.Obs = reg }
}

// WithSearchBudget caps the number of distinct candidate partitions the
// search may simulate (0 = unlimited). A truncated search still returns the
// best plan found, deterministically.
func WithSearchBudget(candidates int) PlannerOption {
	return func(p *Planner) { p.opts.Budget = candidates }
}

// NewPlanner builds a Planner from options.
func NewPlanner(options ...PlannerOption) *Planner {
	p := &Planner{}
	for _, opt := range options {
		opt(p)
	}
	return p
}

// Plan runs the full AutoPipe pipeline for a model on a cluster: choose a
// pipeline depth and a balanced sub-layer partition, then solve the warmup
// micro-batch slicing. The returned Blocks is the block array the plan's
// partition indexes (needed by Evaluate).
//
// Plan validates run and cluster up front (wrapping ErrBadConfig), returns
// ErrInfeasible when no partition fits device memory, and honors ctx
// cancellation and deadlines.
func (p *Planner) Plan(ctx context.Context, m Model, run Run, cluster Cluster) (*Spec, *Blocks, error) {
	return core.PlanClusterOpts(ctx, m, run, cluster, p.opts)
}

// PlanDepth runs the heuristic partition search at a fixed pipeline depth
// with micro micro-batches per iteration.
func (p *Planner) PlanDepth(ctx context.Context, bl *Blocks, depth, micro int) (*PlanResult, error) {
	return core.PlanDepthOpts(ctx, bl, depth, micro, p.opts)
}

// Profile returns the stage profile of a partition over a block array — the
// bridge from a planned partition to SimulateProfile and SliceProfile.
func Profile(part Partition, bl *Blocks, micro int) StageProfile {
	return part.Profile(bl, micro)
}

// SimulateProfile runs the paper's analytic pipeline simulator on a stage
// profile.
func SimulateProfile(p StageProfile) (*SimResult, error) {
	return sim.SimulateProfile(p)
}

// SliceProfile solves Algorithm 2 on a stage profile: the number of leading
// micro-batches whose forwards should be split in half to hide the pipeline
// startup overhead.
func SliceProfile(p StageProfile) (SlicePlan, error) {
	return slicer.SolveProfile(p)
}
