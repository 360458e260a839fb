// Package partition defines pipeline partitions over a model block array and
// implements Algorithm 1 of the paper: the dynamic program that produces a
// relatively balanced partition used to seed the heuristic search.
package partition

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"autopipe/internal/model"
	"autopipe/internal/sim"
)

// Partition assigns a contiguous block range to each pipeline stage.
// Bounds has Stages()+1 entries; stage i owns blocks [Bounds[i], Bounds[i+1]).
type Partition struct {
	Bounds []int
}

// New builds a partition from explicit bounds and validates its shape over n
// blocks: bounds must start at 0, end at n, and be strictly increasing (no
// empty stages).
func New(bounds []int, n int) (Partition, error) {
	if len(bounds) < 2 {
		return Partition{}, fmt.Errorf("partition: need at least 2 bounds, got %d", len(bounds))
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return Partition{}, fmt.Errorf("partition: bounds must span [0,%d], got %v", n, bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return Partition{}, fmt.Errorf("partition: empty or inverted stage at bound %d: %v", i, bounds)
		}
	}
	return Partition{Bounds: append([]int(nil), bounds...)}, nil
}

// Stages returns the pipeline depth.
func (p Partition) Stages() int { return len(p.Bounds) - 1 }

// Stage returns the half-open block range [lo, hi) of stage i.
func (p Partition) Stage(i int) (lo, hi int) { return p.Bounds[i], p.Bounds[i+1] }

// Size returns the number of blocks in stage i.
func (p Partition) Size(i int) int { return p.Bounds[i+1] - p.Bounds[i] }

// Clone returns a deep copy.
func (p Partition) Clone() Partition {
	return Partition{Bounds: append([]int(nil), p.Bounds...)}
}

// Equal reports whether two partitions are identical.
func (p Partition) Equal(q Partition) bool {
	if len(p.Bounds) != len(q.Bounds) {
		return false
	}
	for i := range p.Bounds {
		if p.Bounds[i] != q.Bounds[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key for visited-set bookkeeping: every bound
// in decimal, each followed by a comma.
func (p Partition) Key() string {
	var buf [64]byte
	b := buf[:0]
	for _, x := range p.Bounds {
		b = strconv.AppendInt(b, int64(x), 10)
		b = append(b, ',')
	}
	return string(b)
}

// StageTimes returns the per-stage forward and backward times (the paper's
// f_x and b_x) of p over the block array.
func (p Partition) StageTimes(bl *model.Blocks) (f, b []float64) {
	s := p.Stages()
	return p.AppendStageTimes(bl, make([]float64, 0, s), make([]float64, 0, s))
}

// AppendStageTimes appends p's per-stage forward and backward times to f and
// b, so a caller scoring many partitions can reuse two buffers.
func (p Partition) AppendStageTimes(bl *model.Blocks, f, b []float64) ([]float64, []float64) {
	for i := 0; i < p.Stages(); i++ {
		var fi, bi float64
		for _, blk := range bl.List[p.Bounds[i]:p.Bounds[i+1]] {
			fi += blk.Fwd
			bi += blk.Bwd
		}
		f = append(f, fi)
		b = append(b, bi)
	}
	return f, b
}

// Profile bundles the partition's stage times with the block array's
// communication constant into the StageProfile consumed by the simulator,
// the Slicer, and the planner engine.
func (p Partition) Profile(bl *model.Blocks, micro int) sim.StageProfile {
	f, b := p.StageTimes(bl)
	return sim.StageProfile{Fwd: f, Bwd: b, Comm: bl.Comm, Micro: micro}
}

// StageWeights returns per-stage f+b compute weights.
func (p Partition) StageWeights(bl *model.Blocks) []float64 {
	f, b := p.StageTimes(bl)
	w := make([]float64, len(f))
	for i := range f {
		w[i] = f[i] + b[i]
	}
	return w
}

// StageParams returns the parameter count of each stage.
func (p Partition) StageParams(bl *model.Blocks) []int64 {
	s := p.Stages()
	out := make([]int64, s)
	for i := 0; i < s; i++ {
		for _, blk := range bl.List[p.Bounds[i]:p.Bounds[i+1]] {
			out[i] += blk.Params
		}
	}
	return out
}

// LayerCounts returns per-stage sizes in transformer-layer units (0.5 per
// sub-block), the representation of paper Table II.
func (p Partition) LayerCounts(bl *model.Blocks) []float64 {
	s := p.Stages()
	out := make([]float64, s)
	for i := 0; i < s; i++ {
		for _, blk := range bl.List[p.Bounds[i]:p.Bounds[i+1]] {
			out[i] += blk.LayerFraction()
		}
	}
	return out
}

// Imbalance returns the population standard deviation of per-stage f+b run
// times — the balance criterion of the paper's Fig. 13 (lower is better).
func (p Partition) Imbalance(bl *model.Blocks) float64 {
	w := p.StageWeights(bl)
	return StdDev(w)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// String renders the partition as block bounds and layer counts.
func (p Partition) String() string {
	return fmt.Sprintf("Partition%v", p.Bounds)
}

// Describe renders a human-readable per-stage summary.
func (p Partition) Describe(bl *model.Blocks) string {
	f, b := p.StageTimes(bl)
	layers := p.LayerCounts(bl)
	params := p.StageParams(bl)
	var sb strings.Builder
	for i := 0; i < p.Stages(); i++ {
		fmt.Fprintf(&sb, "stage %d: blocks [%d,%d) layers=%.1f f=%.2fms b=%.2fms params=%.1fM\n",
			i, p.Bounds[i], p.Bounds[i+1], layers[i], f[i]*1e3, b[i]*1e3, float64(params[i])/1e6)
	}
	return sb.String()
}
