package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"autopipe"
	"autopipe/internal/cost"
	"autopipe/internal/memory"
	"autopipe/internal/model"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

const (
	// planColdTail is plan-cold's tail percentile: a 20 s run plans several
	// thousand configs on a 2-core host, leaving tens of samples beyond p99.
	planColdTail = 99.0
	// planColdCycles is how many full stratification cycles (every cell ×
	// every micro-batch-count bucket) the mix holds; the loop cycles
	// through the mix, a fresh planner for every plan.
	planColdCycles = 4
	// setupReps is how many times each workload repeats its setup; setup_s
	// is the median.
	setupReps = 5
)

// specDigest hashes a spec's content without its wall-clock SearchTime, so
// equal plans hash equal across runs, processes and the wire.
func specDigest(s *autopipe.Spec) string {
	c := *s
	c.SearchTime = 0
	data, _ := json.Marshal(&c) // a Spec holds only plain values
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

// planCold is the in-process closed loop: one caller plans a config with a
// fresh NewPlanner(WithParallelism(1)) and evaluates the plan, then moves on
// to the next config of a seeded mix of distinct configs, cycling through it.
func planCold(ctx context.Context, o options) (*outcome, error) {
	oc := newOutcome()
	var gen *configGen
	var mix []planConfig
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		gen = newConfigGen(o.seed)
		var err error
		if mix, err = gen.take(len(gen.strata) * microBuckets * planColdCycles); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	oc.metrics["setup_s"] = median(setups)
	oc.params["tail_percentile"] = planColdTail
	oc.params["space"] = fmt.Sprintf("zoo x gpus %v x mbs %v x micros [%d,%d], %d cells", spaceGPUs, spaceMicroBatch, minMicros, maxMicros, len(gen.strata))

	// plan_iter_ms_geomean and the spec digest cover one full stratification
	// cycle (every cell × every micro-batch-count bucket); every run plans at
	// least these, so both are a function of the seed alone.
	pc := &planColdRun{mix: mix, qualityN: len(gen.strata) * microBuckets}
	oc.params["quality_configs"] = pc.qualityN
	untraced := o.measure()
	if o.trace {
		untraced /= 2
	}
	ph, err := pc.phase(ctx, untraced, nil)
	if err != nil {
		return nil, err
	}
	oc.attempted, oc.failed = int64(ph.ops), int64(ph.failed)
	ph.e2e(oc, o, planColdTail)
	oc.metrics["fail_ratio"] = float64(ph.failed) / float64(ph.ops)
	oc.metrics["plan_iter_ms_geomean"] = geomean(pc.iterMs)

	h := sha256.New()
	for _, d := range pc.digests {
		h.Write([]byte(d))
	}
	fmt.Fprintf(o.out, "plan-cold: %d plans in %.2fs, spec digest of the first %d configs %x\n",
		ph.ops, ph.elapsed.Seconds(), pc.qualityN, h.Sum(nil)[:8])

	// Plans are byte-identical at every parallelism: re-plan a sample on the
	// default worker pool and compare.
	for i := 0; i < pc.qualityN; i += 32 {
		c := mix[i]
		spec, _, err := autopipe.NewPlanner().Plan(ctx, c.Model, c.Run, c.Cluster)
		oc.check(err == nil && specDigest(spec) == pc.digests[i], "config %d (%s): plan at default parallelism differs from parallelism 1", i, c)
	}
	oc.check(ph.failed == 0, "%d of %d plan-cold operations failed", ph.failed, ph.ops)

	if o.trace {
		oc.tracer = newTracer()
		tph, err := pc.phase(ctx, o.measure()-untraced, oc.tracer)
		if err != nil {
			return nil, err
		}
		oc.metrics["trace.overhead_ops_s"] = ph.throughput() - tph.throughput()
		pc.layerMetrics(oc, o, ph, tph)
	}
	oc.failures = append(oc.failures, pc.failures...)
	return oc, nil
}

// planColdRun is the state of one plan-cold run across its phases.
type planColdRun struct {
	mix      []planConfig
	next     int
	qualityN int
	iterMs   []float64 // Evaluate IterTime of the first qualityN configs
	digests  []string  // spec digests of the same configs
	failures []string
	est      planEstimates
}

// phaseStats is one measured phase of a closed loop.
type phaseStats struct {
	ops, failed int
	elapsed     time.Duration
	lat         []point // per-op latency in ms, at its completion
	rt          runtimeDelta
	rssPeak     float64
}

// latencies returns the phase's latencies, ms.
func (p phaseStats) latencies() []float64 {
	out := make([]float64, len(p.lat))
	for i, l := range p.lat {
		out[i] = l.v
	}
	return out
}

// e2e sets the end-to-end metrics of a closed-loop phase. Throughput is
// operations per second of operation time, and it and the p50 are medians
// over one-second windows; the tail is over every sample.
func (p phaseStats) e2e(oc *outcome, o options, tailPct float64) {
	ws := windows(p.lat, time.Second, p.elapsed)
	lat := p.latencies()
	oc.metrics["throughput_ops_s"] = windowMedian(ws, func(xs []float64) float64 { return float64(len(xs)) / (sum(xs) / 1000) })
	oc.metrics["latency_ms_p50"] = windowMedian(ws, pct(50))
	oc.metrics["latency_ms_tail"] = percentile(lat, tailPct)
	oc.metrics["alloc_kb_per_op"] = p.rt.kbPerOp
	oc.metrics["peak_rss_mb"] = p.rssPeak
	oc.metrics["runtime.allocs_per_op"] = p.rt.allocsPerOp
	oc.metrics["runtime.gc_cpu_share"] = p.rt.gcShare
	if n := samplesBeyond(len(lat), tailPct); n < 10 {
		fmt.Fprintf(o.out, "note: only %d samples beyond p%g\n", n, tailPct)
	}
}

func (p phaseStats) throughput() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// phase runs the closed loop for d, and in any case until the quality
// configs are planned.
func (pc *planColdRun) phase(ctx context.Context, d time.Duration, tr *tracer) (phaseStats, error) {
	var ph phaseStats
	rss := startRSS()
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start) < d || pc.next < pc.qualityN {
		if err := ctx.Err(); err != nil {
			return ph, err
		}
		i := pc.next
		pc.next++
		c := pc.mix[i%len(pc.mix)]

		var reg *obs.Registry
		planner := autopipe.NewPlanner(autopipe.WithParallelism(1))
		if tr != nil {
			reg = autopipe.NewRegistry()
			planner = autopipe.NewPlanner(autopipe.WithParallelism(1), autopipe.WithObserver(reg))
		}
		t0 := time.Now()
		op := tr.begin("op", int64(i), -1)
		sp := tr.begin("core.plan", int64(i), op)
		spec, bl, err := planner.Plan(ctx, c.Model, c.Run, c.Cluster)
		tr.end(sp)
		var res *autopipe.EvalResult
		if err == nil {
			ev := tr.begin("exec.evaluate", int64(i), op)
			res, err = autopipe.Evaluate(spec, bl, c.Run, c.Cluster)
			tr.end(ev)
			if err == nil {
				err = res.Failure()
			}
		}
		tr.end(op)
		lat := time.Since(t0)
		ph.ops++
		ph.lat = append(ph.lat, point{time.Since(start), ms(lat)})
		if err != nil {
			ph.failed++
			pc.failures = append(pc.failures, fmt.Sprintf("config %d (%s): %v", i, c, err))
			continue
		}
		if i < pc.qualityN {
			pc.iterMs = append(pc.iterMs, res.IterTime*1000)
			pc.digests = append(pc.digests, specDigest(spec))
		}
		if tr != nil {
			pc.est.add(tr, int64(i), c, spec, bl, reg)
		}
	}
	ph.elapsed = time.Since(start)
	ph.rt = deltaRuntime(rt0, readRuntime(), ph.ops)
	ph.rssPeak = rss.peak()
	return ph, nil
}

// planEstimates accumulates, over the traced plans, the cost of every
// planner layer: each layer's public function is called from here on the
// plan's own inputs, timed, and multiplied by how often the engine calls it
// (from the planner's observer counters).
type planEstimates struct {
	plans                                 int
	build, balance, sim, key, fits, slice time.Duration // estimated time in all plans
	balanceCalls, fitsCalls, sliceCalls   int
	simCalls, keyCalls                    float64
	keyTimed                              time.Duration // measured time of keyTimedCalls calls
	keyTimedCalls                         int
	hits, misses, candidates, pruned      float64
	seed, adjust, move                    float64 // seconds
}

func (e *planEstimates) add(tr *tracer, op int64, c planConfig, spec *autopipe.Spec, bl *autopipe.Blocks, reg *obs.Registry) {
	snap := reg.Snapshot()
	e.plans++
	e.hits += snap.Counters["planner.engine.cache_hits"]
	e.misses += snap.Counters["planner.engine.cache_misses"]
	e.pruned += snap.Counters["planner.engine.depths_pruned"]
	e.candidates += float64(spec.Evaluated)
	var seed, adjust, move float64
	for name, v := range snap.Gauges {
		switch {
		case strings.HasSuffix(name, ".seed_s"):
			seed = max(seed, v)
		case strings.HasSuffix(name, ".adjust_s"):
			adjust = max(adjust, v)
		case strings.HasSuffix(name, ".move_s"):
			move = max(move, v)
		}
	}
	e.seed += seed
	e.adjust += adjust
	e.move += move

	geom := cost.Geometry{MicroBatch: c.Run.MicroBatch, Checkpoint: c.Run.Checkpoint}
	e.build += tr.timed("model.build", op, -1, func() {
		_, _ = model.Build(c.Model, geom, c.Cluster.Device, c.Cluster.Network, model.SubLayer)
	})

	// One Balance seed, one representative simulation and one memory check
	// per pipeline depth the engine searches; simulations are weighted by
	// that depth's candidate count and scaled to the engine's cache misses.
	weights := bl.Weights()
	g := c.Cluster.NumGPUs
	var simEst, depthCands float64
	var fitsTime time.Duration
	depths := 0
	for p := 1; p <= g && p <= bl.Len(); p++ {
		if g%p != 0 {
			continue
		}
		depths++
		m := c.Run.MicroBatches(g / p)
		part, _ := partition.New([]int{0, bl.Len()}, bl.Len())
		if p > 1 {
			e.balance += tr.timed("partition.balance", op, -1, func() { part, _ = partition.Balance(weights, p) })
			e.balanceCalls++
		}
		d := tr.timed("sim.simulate", op, -1, func() { _, _ = sim.SimulateProfile(part.Profile(bl, m)) })
		cands := snap.Counters[fmt.Sprintf("planner.p%d.candidates", p)]
		simEst += cands * float64(d)
		depthCands += cands
		fitsTime += tr.timed("memory.fits", op, -1, func() { _, _ = memory.Fits(bl, part, m, memory.OneFOneB, 1, c.Cluster.Device) })
	}
	misses := snap.Counters["planner.engine.cache_misses"]
	if depthCands > 0 {
		e.sim += time.Duration(simEst / depthCands * misses)
	}
	e.simCalls += misses
	// Completed depths each get one memory check; pruned ones none.
	checked := float64(depths) - snap.Counters["planner.engine.depths_pruned"]
	e.fits += time.Duration(float64(fitsTime) / float64(depths) * checked)
	e.fitsCalls += depths

	// The engine keys every cache lookup and every merge record.
	const keyReps = 16
	kd := tr.timed("partition.key", op, -1, func() {
		for r := 0; r < keyReps; r++ {
			_ = spec.Partition.Key()
		}
	})
	e.keyTimed += kd
	e.keyTimedCalls += keyReps
	calls := 2 * (snap.Counters["planner.engine.cache_hits"] + misses)
	e.keyCalls += calls
	e.key += time.Duration(float64(kd) / keyReps * calls)

	if spec.Depth() > 1 {
		prof := spec.Partition.Profile(bl, c.Run.MicroBatches(spec.DataParallel()))
		e.slice += tr.timed("slicer.solve", op, -1, func() { _, _ = slicer.SolveProfile(prof) })
		e.sliceCalls++
	}
}

func perCallUs(total time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return us(total) / float64(calls)
}

// layerMetrics turns the traced phase into per-layer metrics and prints the
// layer budget of one plan-cold operation.
func (pc *planColdRun) layerMetrics(oc *outcome, o options, untraced, traced phaseStats) {
	e := &pc.est
	layers := oc.tracer.layers()
	n := float64(e.plans)
	planMs := ms(layers["core.plan"].Total) / n
	evalMs := ms(layers["exec.evaluate"].Total) / n
	opMs := ms(layers["op"].Total) / n

	oc.metrics["model.build_us"] = perCallUs(e.build, e.plans)
	oc.metrics["partition.balance_us"] = perCallUs(e.balance, e.balanceCalls)
	oc.metrics["partition.key_ns"] = 1000 * perCallUs(e.keyTimed, e.keyTimedCalls)
	if e.simCalls > 0 {
		oc.metrics["sim.simulate_us"] = us(e.sim) / e.simCalls
	}
	oc.metrics["sim.calls_per_plan"] = e.simCalls / n
	oc.metrics["core.candidates_per_plan"] = e.candidates / n
	if lookups := e.hits + e.misses; lookups > 0 {
		oc.metrics["core.sim_cache_hit_ratio"] = e.hits / lookups
	}
	oc.metrics["core.depths_pruned_per_plan"] = e.pruned / n
	oc.metrics["core.seed_ms"] = 1000 * e.seed / n
	oc.metrics["core.adjust_ms"] = 1000 * e.adjust / n
	oc.metrics["core.move_ms"] = 1000 * e.move / n
	oc.metrics["memory.fits_us"] = perCallUs(e.fits, e.fitsCalls)
	oc.metrics["slicer.solve_us"] = perCallUs(e.slice, e.sliceCalls)
	oc.metrics["exec.evaluate_us"] = 1000 * evalMs

	rows := []budgetRow{
		{"model.build", ms(e.build) / n, "model.Build timed once per plan"},
		{"partition.balance", ms(e.balance) / n, "partition.Balance timed per depth"},
		{"partition.key", ms(e.key) / n, "Partition.Key x 2 per sim-cache lookup"},
		{"sim.simulate", ms(e.sim) / n, "SimulateProfile per depth x cache misses"},
		{"memory.fits", ms(e.fits) / n, "memory.Fits per unpruned depth"},
		{"slicer.solve", ms(e.slice) / n, "slicer.SolveProfile once per plan"},
		{"exec.evaluate", evalMs, "span around autopipe.Evaluate"},
	}
	var est float64
	for _, r := range rows[:6] {
		est += r.MsOp
	}
	residual := planMs - est
	oc.metrics["core.residual_ms"] = residual
	rows = append(rows, budgetRow{"core (residual)", residual, "Plan span minus the planner layers above"})
	printBudget(o.out, fmt.Sprintf("plan-cold, %d traced plans, op = Plan + Evaluate", e.plans), rows, opMs)
	fmt.Fprintf(o.out, "tracing overhead: untraced %.1f ops/s, traced %.1f ops/s (%.1f ops/s, %.1f%%)\n",
		untraced.throughput(), traced.throughput(), untraced.throughput()-traced.throughput(),
		100*(1-traced.throughput()/untraced.throughput()))
}
