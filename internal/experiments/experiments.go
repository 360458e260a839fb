// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each Table*/Fig* function reproduces one of them and
// returns both typed results and a rendered tableio.Table, so the harness
// (cmd/experiments) can print the same rows/series the paper reports and the
// test suite can assert the paper's shape claims (who wins, by roughly what
// factor, and where the crossovers fall).
package experiments

import (
	"context"
	"fmt"

	"autopipe/internal/baselines/megatron"
	"autopipe/internal/config"
	"autopipe/internal/core"
	"autopipe/internal/cost"
	"autopipe/internal/exec"
	"autopipe/internal/fault"
	"autopipe/internal/memory"
	"autopipe/internal/model"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
	"autopipe/internal/schedule"
	"autopipe/internal/slicer"
)

// Env carries the hardware environment experiments run against.
type Env struct {
	Cluster config.Cluster
	// Seed feeds the executor's deterministic jitter where an experiment
	// models "actual" hardware runs (Fig. 11).
	Seed uint64
	// Ctx bounds every planning call; nil means context.Background().
	Ctx context.Context
	// Search configures the planner engine (parallelism, budget, telemetry)
	// for every planning call. Engine results are independent of
	// parallelism, so the tables come out identical at any setting.
	Search core.Options
	// Faults, when non-nil, is appended to the Resilience sweep as an extra
	// custom scenario (cmd/experiments -faults).
	Faults *fault.Plan
}

// DefaultEnv returns the paper's testbed: 16 RTX 3090s over 100 Gb/s IB.
func DefaultEnv() Env {
	return Env{Cluster: config.DefaultCluster(), Seed: 2022}
}

func (e Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// planDepth runs the fixed-depth partition search with the env's engine
// options.
func (e Env) planDepth(bl *model.Blocks, p, m int) (*core.PlanResult, error) {
	return core.PlanDepthOpts(e.ctx(), bl, p, m, e.Search)
}

// planCluster runs the full planner on an explicit cluster (experiments
// sweep modified copies of e.Cluster) with the env's engine options.
func (e Env) planCluster(mc config.Model, run config.Run, cl config.Cluster) (*plan.Spec, *model.Blocks, error) {
	return core.PlanClusterOpts(e.ctx(), mc, run, cl, e.Search)
}

// buildSub lowers a model at sub-layer granularity for the env.
func (e Env) buildSub(mc config.Model, mbs int) (*model.Blocks, error) {
	return model.Build(mc, cost.Geometry{MicroBatch: mbs, Checkpoint: true},
		e.Cluster.Device, e.Cluster.Network, model.SubLayer)
}

// runPartition executes a partition on the discrete-event executor under
// plain 1F1B (numSliced == 0) or AutoPipe's sliced schedule.
func (e Env) runPartition(bl *model.Blocks, part partition.Partition, m, numSliced int, jitter float64) (*exec.Result, error) {
	f, b := part.StageTimes(bl)
	var (
		s   *schedule.Schedule
		err error
	)
	if numSliced > 0 {
		s, err = schedule.Sliced(part.Stages(), m, numSliced)
	} else {
		s, err = schedule.OneFOneB(part.Stages(), m)
	}
	if err != nil {
		return nil, err
	}
	return exec.Run(s, exec.Config{
		VirtFwd:        f,
		VirtBwd:        b,
		CommBytes:      bl.List[0].OutBytes,
		Network:        e.Cluster.Network,
		KernelOverhead: e.Cluster.Device.KernelOverhead,
		Jitter:         jitter,
		Seed:           e.Seed,
	})
}

// Series labels the four methods compared in Figs. 9, 10, and 14.
const (
	SeriesMegatron = "Megatron-LM"
	SeriesSlicer   = "Slicer"
	SeriesPlanner  = "Planner"
	SeriesAutoPipe = "AutoPipe"
)

// MethodResult is one method's measurement in a comparison point.
type MethodResult struct {
	// IterTime and Startup are in seconds; OOM marks a configuration that
	// exceeds device memory (the value fields are then zero).
	IterTime float64
	Startup  float64
	OOM      bool
	// Infeasible marks configurations a method cannot run at all (e.g. the
	// interleaved schedule with an odd per-stage layer count, Fig. 14b).
	Infeasible bool
	NumSliced  int
}

// ComparePoint measures the paper's four methods at one (model, depth,
// micro-batch, #micro-batches) configuration: Megatron-LM's even partition,
// the Slicer alone (even partition + sliced warmup), the Planner alone
// (balanced partition + plain 1F1B), and full AutoPipe (balanced partition +
// sliced warmup).
func (e Env) ComparePoint(mc config.Model, depth, mbs, m int) (map[string]MethodResult, error) {
	bl, err := e.buildSub(mc, mbs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]MethodResult, 4)

	even, err := megatron.EvenPartition(bl, depth)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s depth %d: %w", mc.Name, depth, err)
	}
	evenOOM := !fits(bl, even, m, e.Cluster.Device)

	plannerRes, err := e.planDepth(bl, depth, m)
	if err != nil {
		return nil, err
	}
	balanced := plannerRes.Best.Partition
	balancedOOM := !fits(bl, balanced, m, e.Cluster.Device)

	measure := func(part partition.Partition, oom bool, slice bool) (MethodResult, error) {
		if oom {
			return MethodResult{OOM: true}, nil
		}
		numSliced := 0
		if slice && depth > 1 {
			sp, err := slicer.SolveProfile(part.Profile(bl, m))
			if err != nil {
				return MethodResult{}, err
			}
			numSliced = sp.NumSliced
		}
		r, err := e.runPartition(bl, part, m, numSliced, 0)
		if err != nil {
			return MethodResult{}, err
		}
		return MethodResult{IterTime: r.IterTime, Startup: r.Startup, NumSliced: numSliced}, nil
	}

	if out[SeriesMegatron], err = measure(even, evenOOM, false); err != nil {
		return nil, err
	}
	if out[SeriesSlicer], err = measure(even, evenOOM, true); err != nil {
		return nil, err
	}
	if out[SeriesPlanner], err = measure(balanced, balancedOOM, false); err != nil {
		return nil, err
	}
	if out[SeriesAutoPipe], err = measure(balanced, balancedOOM, true); err != nil {
		return nil, err
	}
	return out, nil
}

func fits(bl *model.Blocks, part partition.Partition, m int, dev config.Device) bool {
	ok, _ := memory.Fits(bl, part, m, memory.OneFOneB, 1, dev)
	return ok
}
