package experiments

import (
	"fmt"

	"autopipe/internal/baselines/megatron"
	"autopipe/internal/config"
	"autopipe/internal/exec"
	"autopipe/internal/memory"
	"autopipe/internal/schedule"
	"autopipe/internal/slicer"
	"autopipe/internal/tableio"
)

// interleaveChunks is Megatron's interleaving factor in the paper's
// startup-overhead comparison (v = 2 halves the startup).
const interleaveChunks = 2

// StartupPoint measures the startup overhead of the four methods at one
// configuration.
type StartupPoint struct {
	Mbs     int
	Depth   int
	Results map[string]MethodResult
}

// SeriesInterleaved labels Megatron-LM's interleaved schedule in Fig. 14.
const SeriesInterleaved = "Interleaved"

// startupPoint measures startup overheads for GPT-2 345M at one (depth,
// micro-batch size, micro-batch count).
func (e Env) startupPoint(depth, mbs, m int) (StartupPoint, error) {
	bl, err := e.buildSub(config.GPT2_345M(), mbs)
	if err != nil {
		return StartupPoint{}, err
	}
	out := StartupPoint{Mbs: mbs, Depth: depth, Results: map[string]MethodResult{}}

	even, err := megatron.EvenPartition(bl, depth)
	if err != nil {
		return StartupPoint{}, err
	}

	// Megatron-LM baseline: plain 1F1B on the even partition.
	r, err := e.runPartition(bl, even, m, 0, 0)
	if err != nil {
		return StartupPoint{}, err
	}
	out.Results[SeriesMegatron] = MethodResult{IterTime: r.IterTime, Startup: r.Startup}

	// Interleaved schedule: v model chunks per device. It needs an even
	// number of chunks per stage and more memory for stashed activations.
	out.Results[SeriesInterleaved] = func() MethodResult {
		vf, vb, _, err := megatron.InterleavedTimes(bl, depth, interleaveChunks)
		if err != nil {
			return MethodResult{Infeasible: true}
		}
		if ok, _ := memory.Fits(bl, even, m, memory.Interleaved, interleaveChunks, e.Cluster.Device); !ok {
			return MethodResult{OOM: true}
		}
		s, err := schedule.Interleaved(depth, m, interleaveChunks)
		if err != nil {
			return MethodResult{Infeasible: true}
		}
		ir, err := exec.Run(s, exec.Config{
			VirtFwd: vf, VirtBwd: vb,
			CommBytes:      bl.List[0].OutBytes,
			Network:        e.Cluster.Network,
			KernelOverhead: e.Cluster.Device.KernelOverhead,
		})
		if err != nil {
			return MethodResult{Infeasible: true}
		}
		return MethodResult{IterTime: ir.IterTime, Startup: ir.Startup}
	}()

	// Slicer alone: even partition with the sliced warmup.
	sp, err := slicer.SolveProfile(even.Profile(bl, m))
	if err != nil {
		return StartupPoint{}, err
	}
	r, err = e.runPartition(bl, even, m, sp.NumSliced, 0)
	if err != nil {
		return StartupPoint{}, err
	}
	out.Results[SeriesSlicer] = MethodResult{IterTime: r.IterTime, Startup: r.Startup, NumSliced: sp.NumSliced}

	// Full AutoPipe: balanced partition with the sliced warmup. Balancing
	// moves load toward earlier stages, so its startup sits slightly above
	// the Slicer's (the effect the paper notes in §IV-E-2).
	pr, err := e.planDepth(bl, depth, m)
	if err != nil {
		return StartupPoint{}, err
	}
	asp, err := slicer.SolveProfile(pr.Best.Partition.Profile(bl, m))
	if err != nil {
		return StartupPoint{}, err
	}
	r, err = e.runPartition(bl, pr.Best.Partition, m, asp.NumSliced, 0)
	if err != nil {
		return StartupPoint{}, err
	}
	out.Results[SeriesAutoPipe] = MethodResult{IterTime: r.IterTime, Startup: r.Startup, NumSliced: asp.NumSliced}
	return out, nil
}

// Fig14a reproduces paper Fig. 14(a): startup overhead versus micro-batch
// size on a 4-stage GPT-2 345M pipeline. The interleaved schedule runs out
// of memory at micro-batch 32.
func (e Env) Fig14a() ([]StartupPoint, *tableio.Table, error) {
	const depth, m = 4, 8
	var points []StartupPoint
	t := &tableio.Table{
		ID:      "fig14a",
		Title:   "Startup overhead (ms) vs micro-batch size; GPT-2 345M, 4 stages",
		Columns: []string{"Mbs", SeriesMegatron, SeriesInterleaved, SeriesSlicer, SeriesAutoPipe},
	}
	for _, mbs := range []int{4, 8, 16, 32} {
		p, err := e.startupPoint(depth, mbs, m)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRow(fmt.Sprint(mbs),
			startupCell(p.Results[SeriesMegatron]), startupCell(p.Results[SeriesInterleaved]),
			startupCell(p.Results[SeriesSlicer]), startupCell(p.Results[SeriesAutoPipe]))
	}
	return points, t, nil
}

// Fig14b reproduces paper Fig. 14(b): startup overhead versus pipeline depth
// at micro-batch size 4. The interleaved schedule cannot run depths whose
// per-stage layer count does not split into two chunks (X), e.g. 8 stages of
// 3 layers for the 24-layer GPT-2 345M.
func (e Env) Fig14b() ([]StartupPoint, *tableio.Table, error) {
	const mbs = 4
	var points []StartupPoint
	t := &tableio.Table{
		ID:      "fig14b",
		Title:   "Startup overhead (ms) vs pipeline depth; GPT-2 345M, micro-batch 4",
		Columns: []string{"Stages", SeriesMegatron, SeriesInterleaved, SeriesSlicer, SeriesAutoPipe},
	}
	for _, depth := range []int{2, 4, 8, 12} {
		p, err := e.startupPoint(depth, mbs, 2*depth)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRow(fmt.Sprint(depth),
			startupCell(p.Results[SeriesMegatron]), startupCell(p.Results[SeriesInterleaved]),
			startupCell(p.Results[SeriesSlicer]), startupCell(p.Results[SeriesAutoPipe]))
	}
	return points, t, nil
}

func startupCell(r MethodResult) string {
	switch {
	case r.Infeasible:
		return "X"
	case r.OOM:
		return "OOM"
	default:
		return tableio.Ms(r.Startup)
	}
}
