package experiments

import (
	"fmt"

	"autopipe/internal/baselines/megatron"
	"autopipe/internal/config"
	"autopipe/internal/exec"
	"autopipe/internal/schedule"
	"autopipe/internal/slicer"
	"autopipe/internal/tableio"
)

// InterleavedPoint compares full-iteration throughput of the interleaved
// schedule against plain Megatron-LM and AutoPipe.
type InterleavedPoint struct {
	Mbs         int
	Megatron    MethodResult
	Interleaved MethodResult
	AutoPipe    MethodResult
}

// AblationInterleaved tests the paper's §I claim that Megatron's interleaved
// schedule "damages the pipeline balance and thus harms the system
// throughput": although interleaving halves the startup overhead (Fig. 14),
// its fixed even chunk assignment pins the embedding to device 0 and the
// vocabulary head to the last device's final chunk, so the steady state
// bottlenecks on the head-heavy device and each micro-batch pays twice the
// cross-device hops. AutoPipe instead rebalances the partition and keeps the
// one-chunk schedule.
func (e Env) AblationInterleaved() ([]InterleavedPoint, *tableio.Table, error) {
	const depth, m = 4, 8
	t := &tableio.Table{
		ID:      "abl-interleaved",
		Title:   "Iteration time (ms): plain 1F1B vs interleaved vs AutoPipe; GPT-2 345M, 4 stages",
		Columns: []string{"Mbs", "Megatron 1F1B", "Interleaved", "AutoPipe", "AutoPipe vs interleaved"},
	}
	var points []InterleavedPoint
	for _, mbs := range []int{4, 8, 16} {
		bl, err := e.buildSub(config.GPT2_345M(), mbs)
		if err != nil {
			return nil, nil, err
		}
		even, err := megatron.EvenPartition(bl, depth)
		if err != nil {
			return nil, nil, err
		}
		p := InterleavedPoint{Mbs: mbs}

		r, err := e.runPartition(bl, even, m, 0, 0)
		if err != nil {
			return nil, nil, err
		}
		p.Megatron = MethodResult{IterTime: r.IterTime, Startup: r.Startup}

		vf, vb, _, err := megatron.InterleavedTimes(bl, depth, interleaveChunks)
		if err != nil {
			return nil, nil, err
		}
		is, err := schedule.Interleaved(depth, m, interleaveChunks)
		if err != nil {
			return nil, nil, err
		}
		ir, err := exec.Run(is, exec.Config{
			VirtFwd: vf, VirtBwd: vb,
			CommBytes:      bl.List[0].OutBytes,
			Network:        e.Cluster.Network,
			KernelOverhead: e.Cluster.Device.KernelOverhead,
		})
		if err != nil {
			return nil, nil, err
		}
		p.Interleaved = MethodResult{IterTime: ir.IterTime, Startup: ir.Startup}

		pr, err := e.planDepth(bl, depth, m)
		if err != nil {
			return nil, nil, err
		}
		sp, err := slicer.SolveProfile(pr.Best.Partition.Profile(bl, m))
		if err != nil {
			return nil, nil, err
		}
		ar, err := e.runPartition(bl, pr.Best.Partition, m, sp.NumSliced, 0)
		if err != nil {
			return nil, nil, err
		}
		p.AutoPipe = MethodResult{IterTime: ar.IterTime, Startup: ar.Startup, NumSliced: sp.NumSliced}

		points = append(points, p)
		t.AddRow(fmt.Sprint(mbs),
			tableio.Ms(p.Megatron.IterTime), tableio.Ms(p.Interleaved.IterTime), tableio.Ms(p.AutoPipe.IterTime),
			tableio.Speedup(p.Interleaved.IterTime/p.AutoPipe.IterTime))
	}
	t.Note("interleaving halves startup (Fig. 14) but its fixed even chunks cannot rebalance the head-heavy tail and its micro-batches hop twice as often")
	return points, t, nil
}
