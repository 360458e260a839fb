// Package cliutil provides the flag handling shared by the repository's
// commands: autopipe, pipesim, experiments, autopipebench, and autopiped all
// register their common flags here, so -parallelism, -timeout, the profiling
// flags, and the daemon's -addr/-store mean the same thing everywhere.
// Parsed values resolve into a planning context, engine options, or daemon
// configuration.
package cliutil

import (
	"context"
	"flag"
	"time"

	"autopipe"
	"autopipe/internal/core"
	"autopipe/internal/fault"
)

// PlannerFlags holds the parsed values of the shared planner flags.
type PlannerFlags struct {
	// Parallelism is the planner worker-pool size; 0 means one per CPU. It
	// affects planning speed only — plans are identical at every setting.
	Parallelism int
	// Timeout bounds the whole planning run; 0 means no limit.
	Timeout time.Duration
}

// RegisterPlanner installs the shared planner flags on fs (before
// fs.Parse). Pass flag.CommandLine for the process-wide set.
func RegisterPlanner(fs *flag.FlagSet) *PlannerFlags {
	pf := RegisterTimeout(fs)
	fs.IntVar(&pf.Parallelism, "parallelism", 0, "planner search workers (0 = one per CPU); any value yields the same plan")
	return pf
}

// RegisterTimeout installs -timeout alone, for a command that plans every
// search serially and so takes no -parallelism (autopiped); Parallelism
// stays 0 in the result.
func RegisterTimeout(fs *flag.FlagSet) *PlannerFlags {
	pf := &PlannerFlags{}
	fs.DurationVar(&pf.Timeout, "timeout", 0, "abort planning after this duration, e.g. 30s (0 = no limit)")
	return pf
}

// Context returns the planning context implied by -timeout. Always call the
// cancel function when planning finishes.
func (pf *PlannerFlags) Context() (context.Context, context.CancelFunc) {
	if pf.Timeout > 0 {
		return context.WithTimeout(context.Background(), pf.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Options returns the engine options implied by the flags, for callers on
// the internal core API (e.g. experiments.Env.Search).
func (pf *PlannerFlags) Options() core.Options {
	return core.Options{Parallelism: pf.Parallelism}
}

// PlannerOptions returns the public functional options implied by the flags,
// for callers constructing an autopipe.Planner.
func (pf *PlannerFlags) PlannerOptions() []autopipe.PlannerOption {
	return []autopipe.PlannerOption{autopipe.WithParallelism(pf.Parallelism)}
}

// ExecFlags holds the parsed values of the shared executor flags.
type ExecFlags struct {
	// Sanitize enables the runtime schedule sanitizer: every executed op and
	// message is checked against the schedule's dependency graph, the link
	// model, and the activation-memory ledger; any violation aborts the run
	// with errdefs.ErrInternal.
	Sanitize bool
}

// RegisterExec installs the shared executor flags on fs (before fs.Parse).
func RegisterExec(fs *flag.FlagSet) *ExecFlags {
	ef := &ExecFlags{}
	fs.BoolVar(&ef.Sanitize, "sanitize", false, "validate every executed op against the schedule dependency graph, link capacity, and memory ledger (fails with an internal-error diagnosis)")
	return ef
}

// ServiceFlags holds the parsed values of the shared daemon flags, used by
// commands that run or address an autopiped instance.
type ServiceFlags struct {
	// Addr is the listen (or target) address for the HTTP API.
	Addr string
	// Store is the job-store directory; empty runs memory-only.
	Store string
	// Rate is the steady-state admission rate in submits/sec; 0 disables the
	// rate limiter.
	Rate float64
	// Burst is the rate-limiter burst size; 0 defaults to max(1, Rate).
	Burst int
	// QueueWait bounds how long an admitted submit may wait for a queue slot
	// before being shed with 503; 0 sheds immediately on a full queue.
	QueueWait time.Duration
	// Chaos is a chaos-plan JSON file wrapped around the HTTP handler; empty
	// means no injection.
	Chaos string
}

// RegisterService installs the shared daemon flags on fs (before fs.Parse).
func RegisterService(fs *flag.FlagSet) *ServiceFlags {
	sf := &ServiceFlags{}
	fs.StringVar(&sf.Addr, "addr", "127.0.0.1:7180", "HTTP listen address for the planning API")
	fs.StringVar(&sf.Store, "store", "", "job-store directory for restart-resumable jobs (empty = memory only)")
	fs.Float64Var(&sf.Rate, "rate", 0, "admission rate limit in submits/sec, rejected with 429 + Retry-After (0 = unlimited)")
	fs.IntVar(&sf.Burst, "burst", 0, "admission burst size above -rate (0 = max(1, rate))")
	fs.DurationVar(&sf.QueueWait, "queue-wait", 0, "how long a submit may wait for a queue slot before 503 + Retry-After (0 = shed immediately)")
	fs.StringVar(&sf.Chaos, "chaos", "", "chaos-plan JSON file injected around the HTTP API (empty = no chaos)")
	return sf
}

// FaultFlags holds the parsed values of the shared fault-injection flags.
type FaultFlags struct {
	// Path is the fault-plan JSON file; empty means no injection.
	Path string
}

// RegisterFaults installs the shared fault-injection flags on fs (before
// fs.Parse).
func RegisterFaults(fs *flag.FlagSet) *FaultFlags {
	ff := &FaultFlags{}
	fs.StringVar(&ff.Path, "faults", "", "fault-plan JSON file to inject during execution (empty = no faults)")
	return ff
}

// Load parses the fault plan named by -faults. It returns (nil, nil) when no
// plan was requested, so callers can pass the result straight through.
func (ff *FaultFlags) Load() (*fault.Plan, error) {
	if ff.Path == "" {
		return nil, nil
	}
	return fault.Load(ff.Path)
}
