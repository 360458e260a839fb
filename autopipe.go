// Package autopipe is the public API of the AutoPipe reproduction: a fast
// pipeline-parallelism planner with balanced sub-layer partitioning and
// micro-batch slicing (Liu et al., CLUSTER 2022), together with the
// simulated-cluster substrate the evaluation runs on.
//
// The typical flow mirrors the paper's Fig. 2:
//
//	model := autopipe.GPT2_345M()
//	cluster := autopipe.DefaultCluster()
//	run := autopipe.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
//	planner := autopipe.NewPlanner()
//	spec, blocks, err := planner.Plan(ctx, model, run, cluster)  // Planner + Slicer
//	result, err := autopipe.Evaluate(spec, blocks, run, cluster) // simulated testbed
//
// The same planner also runs as a long-lived daemon (cmd/autopiped) with a
// content-addressed plan cache; package client is its Go API.
//
// Plan produces a balanced pipeline partition (heuristic master-stage search
// seeded by the Algorithm 1 dynamic program, assessed by the analytic 1F1B
// simulator) plus the number of warmup micro-batches to slice (Algorithm 2).
// Evaluate runs the plan on the discrete-event cluster executor and reports
// the iteration time, startup overhead, and memory feasibility.
package autopipe

import (
	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

// Re-exported configuration types (see internal/config for field docs).
type (
	// Model describes a transformer benchmark model.
	Model = config.Model
	// Device is an accelerator profile.
	Device = config.Device
	// Network is the interconnect profile.
	Network = config.Network
	// Cluster bundles devices and network.
	Cluster = config.Cluster
	// Run is one training configuration.
	Run = config.Run
)

// Re-exported planning types.
type (
	// Spec is a complete pipeline plan (partition, replication, slicing).
	Spec = plan.Spec
	// EvalResult is the outcome of executing a plan on the simulated
	// cluster.
	EvalResult = plan.Result
	// Blocks is a model lowered to AutoPipe's sub-layer block array.
	Blocks = model.Blocks
	// Partition assigns block ranges to pipeline stages.
	Partition = partition.Partition
	// SimResult is the analytic simulator's output (iteration time,
	// critical path, master stage).
	SimResult = sim.Result
	// SlicePlan is the micro-batch slicing decision of Algorithm 2.
	SlicePlan = slicer.Plan
)

// Model zoo (paper Table I).
var (
	GPT2_345M   = config.GPT2_345M
	GPT2_762M   = config.GPT2_762M
	GPT2_1_3B   = config.GPT2_1_3B
	BERTLarge   = config.BERTLarge
	Models      = config.Zoo
	ModelByName = config.ModelByName
)

// DefaultCluster returns the paper's 16× RTX 3090 testbed profile.
func DefaultCluster() Cluster { return config.DefaultCluster() }

// Build lowers a model to AutoPipe's sub-layer block array for a micro-batch
// size (with activation checkpointing, as in all paper experiments).
func Build(m Model, microBatch int, cluster Cluster) (*Blocks, error) {
	return model.Build(m, cost.Geometry{MicroBatch: microBatch, Checkpoint: true},
		cluster.Device, cluster.Network, model.SubLayer)
}

// Evaluate executes a plan for one training iteration on the discrete-event
// cluster executor, reporting iteration time, startup overhead, the gradient
// all-reduce cost, and OOM/runtime-error conditions.
func Evaluate(s *Spec, bl *Blocks, run Run, cluster Cluster) (*EvalResult, error) {
	return plan.Evaluate(s, bl, run, cluster)
}
