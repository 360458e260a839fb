// Command pipesim executes a pipeline schedule for a benchmark model on the
// discrete-event cluster executor and prints timing metrics, per-device
// utilization, and (optionally) a text Gantt chart of the iteration.
//
// Usage:
//
//	pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 \
//	        [-schedule 1f1b|gpipe|sliced|interleaved] [-sliced N] [-gantt] \
//	        [-parallelism N] [-timeout 30s] [-faults plan.json] \
//	        [-metrics report.json] [-trace trace.json]
//
// With -faults, the schedule executes under the injected fault plan: a
// surviving run reports its slowdown against the clean baseline, while a
// fatal fault (device crash, permanent link loss) is classified by its typed
// error. See cmd/experiments -suite resilience for the self-healing driver
// that recovers from fatal faults instead of stopping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"autopipe"
	"autopipe/internal/baselines/megatron"
	"autopipe/internal/cliutil"
	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/exec"
	"autopipe/internal/fault"
	"autopipe/internal/memory"
	"autopipe/internal/model"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

// metricsReport is the JSON document -metrics writes: the executed bubble
// decomposition and link statistics, per-device activation-memory peaks, and
// the observability registry's snapshot.
type metricsReport struct {
	Model      string        `json:"model"`
	Schedule   string        `json:"schedule"`
	Stages     int           `json:"stages"`
	Micro      int           `json:"micro"`
	MicroBatch int           `json:"microBatch"`
	Metrics    *exec.Metrics `json:"metrics"`
	BubbleFrac float64       `json:"bubbleFraction"`
	MemPeaks   []int64       `json:"memoryPeakBytes,omitempty"`
	Obs        obs.Snapshot  `json:"obs"`
}

func main() {
	modelName := flag.String("model", "gpt2-345m", "model: gpt2-345m, gpt2-762m, gpt2-1.3b, bert-large")
	stages := flag.Int("stages", 4, "pipeline depth")
	mbs := flag.Int("mbs", 4, "micro-batch size")
	micro := flag.Int("micro", 8, "micro-batches per iteration")
	schedName := flag.String("schedule", "1f1b", "schedule: 1f1b, gpipe, sliced, interleaved")
	slicedN := flag.Int("sliced", -1, "micro-batches to slice (-1 = solve with Algorithm 2)")
	chunks := flag.Int("chunks", 2, "interleaving factor for -schedule interleaved")
	even := flag.Bool("even", false, "use Megatron's even partition instead of the AutoPipe planner")
	gantt := flag.Bool("gantt", false, "print the per-device timeline")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing) to this path")
	critical := flag.Bool("critical", false, "print the executed critical path")
	metricsPath := flag.String("metrics", "", "write a JSON metrics report (bubbles, utilization, links, memory) to this path")
	pf := cliutil.RegisterPlanner(flag.CommandLine)
	ff := cliutil.RegisterFaults(flag.CommandLine)
	ef := cliutil.RegisterExec(flag.CommandLine)
	prof := cliutil.RegisterProfile(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}

	plan, err := ff.Load()
	if err != nil {
		fail(err)
	}

	mc, err := config.ModelByName(*modelName)
	if err != nil {
		fail(err)
	}
	cluster := config.DefaultCluster()
	bl, err := model.Build(mc, cost.Geometry{MicroBatch: *mbs, Checkpoint: true},
		cluster.Device, cluster.Network, model.SubLayer)
	if err != nil {
		fail(err)
	}

	var part partition.Partition
	if *even {
		part, err = megatron.EvenPartition(bl, *stages)
	} else {
		ctx, cancel := pf.Context()
		var pr *autopipe.PlanResult
		pr, err = autopipe.NewPlanner(pf.PlannerOptions()...).PlanDepth(ctx, bl, *stages, *micro)
		cancel()
		if err == nil {
			part = pr.Best.Partition
		}
	}
	if err != nil {
		fail(err)
	}
	stageProf := part.Profile(bl, *micro)

	var s *schedule.Schedule
	virtF, virtB := stageProf.Fwd, stageProf.Bwd
	switch *schedName {
	case "1f1b":
		s, err = schedule.OneFOneB(*stages, *micro)
	case "gpipe":
		s, err = schedule.GPipe(*stages, *micro)
	case "sliced":
		n := *slicedN
		if n < 0 {
			var sp slicer.Plan
			sp, err = slicer.SolveProfile(stageProf)
			if err != nil {
				fail(err)
			}
			n = sp.NumSliced
			fmt.Printf("Algorithm 2 slices %d micro-batch(es)\n", n)
		}
		s, err = schedule.Sliced(*stages, *micro, n)
	case "interleaved":
		virtF, virtB, _, err = megatron.InterleavedTimes(bl, *stages, *chunks)
		if err != nil {
			fail(err)
		}
		s, err = schedule.Interleaved(*stages, *micro, *chunks)
	default:
		fail(fmt.Errorf("unknown schedule %q", *schedName))
	}
	if err != nil {
		fail(err)
	}

	reg := obs.NewRegistry()
	cfg := exec.Config{
		VirtFwd:        virtF,
		VirtBwd:        virtB,
		CommBytes:      bl.List[0].OutBytes,
		Network:        cluster.Network,
		KernelOverhead: cluster.Device.KernelOverhead,
		Obs:            reg,
		Sanitize:       ef.Sanitize,
	}
	var cleanIter float64
	if plan != nil {
		// Baseline without injection so the faulted run's slowdown is
		// attributable, then execute under the plan.
		clean, err := exec.Run(s, cfg)
		if err != nil {
			fail(err)
		}
		cleanIter = clean.IterTime
		cfg.Faults = fault.New(plan, reg)
	}
	r, err := exec.Run(s, cfg)
	if err != nil {
		failFault(err)
	}

	// Activation-memory ledger: available whenever virtual stages map 1:1 to
	// partition stages (everything except the interleaved schedule).
	var ledger *exec.MemoryLedger
	if s.VirtStages == part.Stages() {
		ledger = &exec.MemoryLedger{
			StashBytes:  make([]int64, s.VirtStages),
			StaticBytes: make([]int64, s.VirtStages),
		}
		for j := 0; j < part.Stages(); j++ {
			lo, hi := part.Stage(j)
			for _, blk := range bl.List[lo:hi] {
				ledger.StashBytes[j] += blk.ActStash
			}
			e := memory.StageEstimate(bl, part, j, *micro, memory.OneFOneB, 1)
			ledger.StaticBytes[j] = e.Params + e.Overhead
		}
	}

	fmt.Printf("%s, %d stages, %d micro-batches of size %d, schedule %s\n\n",
		mc.Name, *stages, *micro, *mbs, s.Name)
	fmt.Print(part.Describe(bl))
	fmt.Printf("\niteration time:   %.1f ms\n", r.IterTime*1e3)
	fmt.Printf("startup overhead: %.1f ms\n", r.Startup*1e3)
	if plan != nil {
		name := plan.Name
		if name == "" {
			name = ff.Path
		}
		injected := reg.Snapshot().Counters["fault.injected"]
		fmt.Printf("fault plan %q: %d fault(s) declared, %.0f activated; survived with +%.1f%% iteration time (clean %.1f ms)\n",
			name, len(plan.Faults), injected, 100*(r.IterTime-cleanIter)/cleanIter, cleanIter*1e3)
	}
	for d, u := range r.Utilization() {
		fmt.Printf("device %d utilization: %.1f%%\n", d, 100*u)
	}
	if sr, err := sim.SimulateProfile(stageProf); err == nil && *schedName == "1f1b" {
		fmt.Printf("analytic simulator: %.1f ms (gap %.1f ms)\n", sr.IterTime*1e3, (r.IterTime-sr.IterTime)*1e3)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(r.Gantt())
	}
	if *critical {
		path, err := r.CriticalPath(s)
		if err != nil {
			fail(err)
		}
		fmt.Println("\ncritical path:")
		for _, tr := range path {
			fmt.Printf("  %s dev%d [%.2f, %.2f] ms\n", tr.Op, tr.Device, tr.Start*1e3, tr.End*1e3)
		}
	}
	if *tracePath != "" {
		fp, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		opts := exec.TraceOptions{}
		if ledger != nil {
			opts.Ledger, opts.Schedule = ledger, s
		}
		if err := r.WriteChromeTraceWith(fp, opts); err != nil {
			fp.Close()
			fail(err)
		}
		fp.Close()
		fmt.Printf("chrome trace written to %s\n", *tracePath)
	}
	if *metricsPath != "" {
		m, err := r.Metrics()
		if err != nil {
			fail(err)
		}
		m.Publish(reg)
		rep := metricsReport{
			Model:      mc.Name,
			Schedule:   s.Name,
			Stages:     *stages,
			Micro:      *micro,
			MicroBatch: *mbs,
			Metrics:    m,
			BubbleFrac: m.BubbleFraction(),
		}
		if ledger != nil {
			peaks, err := ledger.PeakUsage(s, r)
			if err != nil {
				fail(err)
			}
			rep.MemPeaks = peaks
		}
		rep.Obs = reg.Snapshot()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*metricsPath, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("metrics report written to %s\n", *metricsPath)
	}
	if err := stopProf(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pipesim:", err)
	os.Exit(1)
}

// failFault classifies a typed executor failure before exiting, pointing at
// the recovery path for faults a bare schedule run cannot survive.
func failFault(err error) {
	switch {
	case errors.Is(err, errdefs.ErrDeviceLost):
		fmt.Fprintln(os.Stderr, "pipesim: fatal fault (device lost):", err)
		fmt.Fprintln(os.Stderr, "pipesim: a bare schedule cannot survive device loss; the self-healing driver (cmd/experiments -suite resilience) checkpoints and replans over the survivors")
	case errors.Is(err, errdefs.ErrLinkDown):
		fmt.Fprintln(os.Stderr, "pipesim: fatal fault (link down):", err)
	case errors.Is(err, errdefs.ErrOOM):
		fmt.Fprintln(os.Stderr, "pipesim: fault (out of memory):", err)
	case errors.Is(err, errdefs.ErrTransient):
		fmt.Fprintln(os.Stderr, "pipesim: transient fault (retry would succeed):", err)
	default:
		fmt.Fprintln(os.Stderr, "pipesim:", err)
	}
	os.Exit(1)
}
