package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
	"autopipe/internal/tableio"
)

// Table1 reproduces paper Table I: the benchmark models with their layer
// counts, hidden sizes, and parameter counts as derived by the cost model.
func (e Env) Table1() (*tableio.Table, error) {
	t := &tableio.Table{
		ID:      "table1",
		Title:   "Benchmark models",
		Columns: []string{"Model", "# layers", "Hidden size", "# params (millions)"},
	}
	for _, mc := range config.Zoo() {
		bl, err := e.buildSub(mc, 4)
		if err != nil {
			return nil, err
		}
		t.AddRow(mc.Name,
			fmt.Sprint(mc.Layers),
			fmt.Sprint(mc.Hidden),
			fmt.Sprintf("%.0f", float64(bl.TotalParams())/1e6))
	}
	t.Note("parameter counts are derived analytically (embedding+layers); the paper's column counts the released checkpoints")
	return t, nil
}

// Table2Scheme is one of the seven GPT-2 345M partition schemes of paper
// Table II, expressed in transformer-layer units per stage (halves denote a
// ResidualAttentionBlock or ResidualFFNBlock boundary).
type Table2Scheme struct {
	ID     int
	Layers [4]float64
}

// Table2Schemes returns the seven schemes exactly as printed in the paper.
func Table2Schemes() []Table2Scheme {
	return []Table2Scheme{
		{1, [4]float64{5, 7, 6, 6}},
		{2, [4]float64{6, 6.5, 6.5, 5}},
		{3, [4]float64{6, 7, 6, 5}},
		{4, [4]float64{6.5, 6.5, 6.5, 4.5}},
		{5, [4]float64{6.5, 6.5, 6, 5}},
		{6, [4]float64{7, 5.5, 6, 5.5}},
		{7, [4]float64{7, 6.5, 5.5, 5}},
	}
}

// SchemePartition converts a Table II scheme into a block partition over a
// sub-layer block array (embedding with stage 0, head with stage 3).
func SchemePartition(s Table2Scheme, nBlocks int) (partition.Partition, error) {
	bounds := make([]int, 5)
	cum := 0.0
	for i := 0; i < 3; i++ {
		cum += s.Layers[i]
		bounds[i+1] = 1 + int(2*cum)
	}
	bounds[4] = nBlocks
	return partition.New(bounds, nBlocks)
}

// Table2 reproduces paper Table II: the seven pipeline partition schemes of
// GPT-2 345M over four stages, annotated with their simulated iteration time
// and master stage.
func (e Env) Table2() (*tableio.Table, error) {
	bl, err := e.buildSub(config.GPT2_345M(), 4)
	if err != nil {
		return nil, err
	}
	t := &tableio.Table{
		ID:      "table2",
		Title:   "Pipeline planning of the GPT-2 345M model (4 stages)",
		Columns: []string{"Partition ID", "stage 0", "stage 1", "stage 2", "stage 3", "sim iter (ms)", "master stage"},
	}
	for _, s := range Table2Schemes() {
		part, err := SchemePartition(s, bl.Len())
		if err != nil {
			return nil, err
		}
		r, err := sim.SimulateProfile(part.Profile(bl, 8))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(s.ID),
			fmt.Sprint(s.Layers[0]), fmt.Sprint(s.Layers[1]),
			fmt.Sprint(s.Layers[2]), fmt.Sprint(s.Layers[3]),
			tableio.Ms(r.IterTime), fmt.Sprint(r.Master))
	}
	t.Note("layer counts are the paper's; iteration time and master stage come from the AutoPipe simulator (8 micro-batches, micro-batch size 4)")
	return t, nil
}
