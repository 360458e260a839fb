package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"autopipe"
	"autopipe/internal/nn"
	"autopipe/internal/train"
)

// The train-step model: a small GPT described both for the planner's cost
// model and for the training framework, with the same block/module
// indexing, trained in trainMicros micro-batches of trainBatch sequences of
// trainSeq tokens over trainDepth pipeline stages.
var trainArch = autopipe.Model{
	Name: "GPT-mini", Layers: 4, Hidden: 32, Heads: 4,
	FFNMult: 4, SeqLen: trainSeq, Vocab: 97,
}

const (
	trainDepth  = 3
	trainMicros = 6
	trainBatch  = 2
	trainSeq    = 16
	// trainTail is train-step's tail percentile; a 20 s run takes several
	// hundred steps on a 2-core host.
	trainTail = 90.0
	// lossTolerance bounds |pipeline loss - serial loss| at every step.
	lossTolerance = 1e-9
)

// trainSetup is everything the measured loop needs: the planned partition
// and slicing count, and two identically initialised models, one cut into
// the pipeline and one kept whole as the serial reference.
type trainSetup struct {
	spec      *autopipe.Spec
	bubble    float64
	iterMs    float64
	numSliced int
	pipe      *train.Pipeline
	serial    []nn.Module
	dsPipe    *train.Dataset
	dsSerial  *train.Dataset
	optPipe   *train.Adam
	optSerial *train.Adam
}

func newTrainSetup(ctx context.Context, seed uint64) (*trainSetup, error) {
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = trainDepth
	blocks, err := autopipe.Build(trainArch, trainBatch, cluster)
	if err != nil {
		return nil, err
	}
	pr, err := autopipe.NewPlanner(autopipe.WithParallelism(1)).PlanDepth(ctx, blocks, trainDepth, trainMicros)
	if err != nil {
		return nil, err
	}
	part := pr.Best.Partition
	sp, err := autopipe.SliceProfile(autopipe.Profile(part, blocks, trainMicros))
	if err != nil {
		return nil, err
	}
	spec := &autopipe.Spec{Planner: "AutoPipe", Partition: part, StageDevices: make([]int, trainDepth), NumSliced: sp.NumSliced}
	for i := range spec.StageDevices {
		spec.StageDevices[i] = 1
	}
	run := autopipe.Run{MicroBatch: trainBatch, NumMicro: trainMicros, Checkpoint: true}
	ev, err := autopipe.Evaluate(spec, blocks, run, cluster)
	if err != nil {
		return nil, err
	}
	if err := ev.Failure(); err != nil {
		return nil, err
	}

	cfg := nn.GPTConfig{
		Vocab: trainArch.Vocab, MaxSeq: trainArch.SeqLen, Hidden: trainArch.Hidden,
		Heads: trainArch.Heads, Layers: trainArch.Layers, FFNMult: trainArch.FFNMult, Seed: seed,
	}
	mods := nn.BuildGPT(cfg)
	if len(mods) != blocks.Len() {
		return nil, fmt.Errorf("module array (%d) does not align with block array (%d)", len(mods), blocks.Len())
	}
	pipe, err := train.NewPipeline(mods, part.Bounds)
	if err != nil {
		return nil, err
	}
	return &trainSetup{
		spec:      spec,
		bubble:    pr.Best.Sim.Bubble() / (pr.Best.Sim.IterTime * trainDepth),
		iterMs:    1000 * ev.IterTime,
		numSliced: sp.NumSliced,
		pipe:      pipe,
		serial:    nn.BuildGPT(cfg),
		dsPipe:    train.NewDataset(trainArch.Vocab, trainSeq, seed),
		dsSerial:  train.NewDataset(trainArch.Vocab, trainSeq, seed),
		optPipe:   train.NewAdam(2e-3),
		optSerial: train.NewAdam(2e-3),
	}, nil
}

// trainPhase is one measured phase of the train-step loop.
type trainPhase struct {
	phaseStats
	busy    time.Duration // summed op time
	alloc   rtSample      // allocations summed over ops
	serial  time.Duration
	forward time.Duration
}

// busyThroughput is steps per second of step time: the serial reference
// running between steps is not charged.
func (p trainPhase) busyThroughput() float64 { return float64(p.ops) / p.busy.Seconds() }

// trainStep: plan a GPT-mini partition and its slicing count, then run
// pipelined sliced-1F1B training steps, each checked against a serial
// single-worker step on identical weights and data.
func trainStep(ctx context.Context, o options) (*outcome, error) {
	oc := newOutcome()
	oc.params["model"] = trainArch
	oc.params["depth"] = trainDepth
	oc.params["micro_batches"] = trainMicros
	oc.params["tail_percentile"] = trainTail
	var ts *trainSetup
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var err error
		if ts, err = newTrainSetup(ctx, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	oc.metrics["setup_s"] = median(setups)
	oc.params["partition"] = ts.spec.Partition.Bounds
	oc.params["num_sliced"] = ts.numSliced

	step := 0
	untraced := o.measure()
	if o.trace {
		untraced /= 2
	}
	ph, err := ts.phase(ctx, oc, untraced, nil, &step)
	if err != nil {
		return nil, err
	}
	oc.attempted = int64(ph.ops)
	ph.rt.kbPerOp = ph.alloc.allocBytes / 1024 / float64(ph.ops)
	ph.rt.allocsPerOp = ph.alloc.allocObjects / float64(ph.ops)
	ph.e2e(oc, o, trainTail)
	oc.metrics["fail_ratio"] = float64(oc.failed) / float64(ph.ops)
	oc.metrics["plan_iter_ms_geomean"] = ts.iterMs
	oc.metrics["sim.bubble_share"] = ts.bubble
	fmt.Fprintf(o.out, "train-step: %d pipelined steps (partition %v, %d sliced), loss equal to serial within %g at every step\n",
		ph.ops, ts.spec.Partition.Bounds, ts.numSliced, lossTolerance)

	if o.trace {
		oc.tracer = newTracer()
		tph, err := ts.phase(ctx, oc, o.measure()-untraced, oc.tracer, &step)
		if err != nil {
			return nil, err
		}
		oc.attempted += int64(tph.ops)
		layers := oc.tracer.layers()
		n := float64(tph.ops)
		pipeMs := ms(layers["train.pipeline_step"].Total) / n
		serialMs := ms(tph.serial) / n
		oc.metrics["train.pipeline_step_ms"] = pipeMs
		oc.metrics["train.serial_step_ms"] = serialMs
		oc.metrics["train.forward_ms"] = ms(tph.forward) / n
		oc.metrics["train.optimizer_ms"] = ms(layers["train.optimizer"].Total) / n
		oc.metrics["train.data_ms"] = ms(layers["train.data"].Total) / n
		oc.metrics["train.pipeline_speedup"] = serialMs / pipeMs
		oc.metrics["trace.overhead_ops_s"] = ph.busyThroughput() - tph.busyThroughput()
		rows := []budgetRow{
			{"train.data", oc.metrics["train.data_ms"], "Dataset.Micros span"},
			{"train.pipeline_step", pipeMs, "Pipeline.Step span"},
			{"train.optimizer", oc.metrics["train.optimizer_ms"], "Adam.Step span"},
			{"op (zero grads)", ms(layers["op"].Self) / n, "op span minus the spans above"},
		}
		printBudget(o.out, fmt.Sprintf("train-step, %d traced steps, op = data + pipelined step + optimizer", tph.ops), rows, ms(layers["op"].Total)/n)
		fmt.Fprintf(o.out, "serial reference step %.3f ms (forward only %.3f ms), pipeline speedup %.2fx\n",
			serialMs, oc.metrics["train.forward_ms"], serialMs/pipeMs)
		fmt.Fprintf(o.out, "tracing overhead: untraced %.2f steps/s, traced %.2f steps/s\n", ph.busyThroughput(), tph.busyThroughput())
	}
	return oc, nil
}

// phase runs pipelined steps for d; after each, outside the timed op, the
// serial reference takes the same step and the losses must agree.
func (ts *trainSetup) phase(ctx context.Context, oc *outcome, d time.Duration, tr *tracer, step *int) (trainPhase, error) {
	var ph trainPhase
	scale := 1.0 / float64(trainMicros*trainBatch*trainSeq)
	pipeParams, serialParams := ts.pipe.AllParams(), nn.CollectParams(ts.serial)
	phase0 := readRuntime()
	rss := startRSS()
	start := time.Now()
	for time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return ph, err
		}
		*step++
		id := int64(*step)
		rt0 := readRuntime()
		t0 := time.Now()
		op := tr.begin("op", id, -1)
		var micros []train.Batch
		sp := tr.begin("train.data", id, op)
		micros = ts.dsPipe.Micros(trainMicros, trainBatch)
		tr.end(sp)
		nn.ZeroGrads(pipeParams)
		sp = tr.begin("train.pipeline_step", id, op)
		loss, err := ts.pipe.Step(micros, ts.numSliced, scale)
		tr.end(sp)
		if err != nil {
			return ph, fmt.Errorf("pipeline step %d: %w", *step, err)
		}
		sp = tr.begin("train.optimizer", id, op)
		ts.optPipe.Step(pipeParams)
		tr.end(sp)
		tr.end(op)
		lat := time.Since(t0)
		rt1 := readRuntime()
		ph.ops++
		ph.busy += lat
		ph.lat = append(ph.lat, point{time.Since(start), ms(lat)})
		ph.alloc.allocBytes += rt1.allocBytes - rt0.allocBytes
		ph.alloc.allocObjects += rt1.allocObjects - rt0.allocObjects

		ref := ts.dsSerial.Micros(trainMicros, trainBatch)
		nn.ZeroGrads(serialParams)
		var serialLoss float64
		ph.serial += tr.timed("train.serial_step", id, -1, func() { serialLoss = train.SerialStep(ts.serial, ref, scale) })
		ts.optSerial.Step(serialParams)
		if tr != nil {
			ph.forward += tr.timed("train.forward", id, -1, func() { _ = train.Loss(ts.serial, ref) })
		}
		if diff := math.Abs(loss - serialLoss); !(diff <= lossTolerance) {
			oc.check(false, "step %d: pipeline loss %.12f differs from serial %.12f by %g", *step, loss, serialLoss, diff)
			oc.failed++
		}
	}
	ph.elapsed = time.Since(start)
	ph.rt.gcShare = deltaRuntime(phase0, readRuntime(), ph.ops).gcShare
	ph.rssPeak = rss.peak()
	return ph, nil
}
