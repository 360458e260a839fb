package partition

import (
	"fmt"
	"math"
)

// Balance implements Algorithm 1 of the paper: given per-block weights
// (f_i + b_i) and a pipeline depth p, it returns the contiguous partition
// that minimizes the maximum per-stage weight, via the classic min-max
// linear-partition dynamic program (see Table).
//
// The paper seeds its heuristic search with this "relatively balanced"
// scheme; it is only relatively balanced because block weights are lumpy
// (embedding and head blocks differ from transformer sub-blocks).
func Balance(weights []float64, p int) (Partition, error) {
	t, err := NewTable(weights, p)
	if err != nil {
		return Partition{}, err
	}
	bounds := make([]int, p+1)
	if err := t.Split(len(weights), p, bounds); err != nil {
		return Partition{}, err
	}
	return New(bounds, len(weights))
}

// Table is Algorithm 1's dynamic-programming table over one block-weight
// array, for up to maxStages stages:
//
//	time[i][j] = min over k<i of max(time[k][j-1], prefix[i]-prefix[k])
//
// is the best max-stage weight of the first i blocks in j stages. Row i
// depends only on the first i weights, so one table answers the optimal
// split of every block prefix into every stage count up to maxStages. The
// planner builds one per search: each depth's seed is a Split of the whole
// array, and each master move's "apply Algorithm 1 to the first i−1 stages"
// (paper §III-B step 3) is a Split of a prefix, each an O(stages) backtrack.
type Table struct {
	n, p int
	// time and from are (n+1)×(p+1), row-major; from holds the argmin k,
	// the end of the previous stage.
	time []float64
	from []int
}

// NewTable runs the dynamic program over weights for 1..maxStages stages.
func NewTable(weights []float64, maxStages int) (*Table, error) {
	n, p := len(weights), maxStages
	if p <= 0 {
		return nil, fmt.Errorf("partition: pipeline depth must be positive, got %d", p)
	}
	if n < p {
		return nil, fmt.Errorf("partition: cannot split %d blocks into %d stages", n, p)
	}
	prefix := make([]float64, n+1)
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("partition: negative block weight %g at index %d", w, i)
		}
		prefix[i+1] = prefix[i] + w
		if math.IsNaN(prefix[i+1]) || math.IsInf(prefix[i+1], 0) {
			return nil, fmt.Errorf("partition: block weights are not finite or overflow at index %d (weight %g)", i, w)
		}
	}

	const inf = math.MaxFloat64
	w := p + 1
	t := &Table{n: n, p: p, time: make([]float64, (n+1)*w), from: make([]int, (n+1)*w)}
	for c := range t.time {
		t.time[c] = inf
		t.from[c] = -1
	}
	t.time[0] = 0
	for i := 1; i <= n; i++ {
		maxJ := p
		if i < maxJ {
			maxJ = i
		}
		for j := 1; j <= maxJ; j++ {
			// k is the end of the previous stage; stage j holds (k, i].
			c := i*w + j
			for k := j - 1; k < i; k++ {
				// time[k][j-1] never decreases with k (a longer prefix
				// never balances better, and the prefix sums are finite
				// and monotone), so once it reaches the best max so far
				// no later k can strictly beat it. This also stops at the
				// infeasible (inf) entries of the j-1 = 0 column.
				prev := t.time[k*w+j-1]
				if prev >= t.time[c] {
					break
				}
				cand := prefix[i] - prefix[k]
				if prev > cand {
					cand = prev
				}
				if cand < t.time[c] {
					t.time[c] = cand
					t.from[c] = k
				}
			}
		}
	}
	return t, nil
}

// Split writes the optimal partition of blocks [0, end) into stages stages
// to bounds, which must have stages+1 entries: bounds[0] = 0, bounds[stages]
// = end, and stage j owns [bounds[j], bounds[j+1]).
//
//hot:backtracks every seed and master-move rebalance of a planner search
func (t *Table) Split(end, stages int, bounds []int) error {
	if stages <= 0 || stages > t.p || end < stages || end > t.n || len(bounds) != stages+1 {
		return fmt.Errorf("partition: cannot split %d blocks into %d stages (table covers %d blocks, %d stages, %d bounds given)",
			end, stages, t.n, t.p, len(bounds))
	}
	w := t.p + 1
	if t.time[end*w+stages] == math.MaxFloat64 {
		return fmt.Errorf("partition: no feasible %d-stage partition of %d blocks", stages, end)
	}
	bounds[stages] = end
	for j, i := stages, end; j > 0; j-- {
		i = t.from[i*w+j]
		bounds[j-1] = i
	}
	return nil
}

// Even returns the Megatron-LM style partition: blocks split into p runs of
// equal block count (callers arrange the block array so this equals "divide
// transformer layers evenly"). It returns an error when p does not divide
// the divisible region evenly, mirroring Megatron's constraint that pipeline
// depth must be a factor of the layer count.
func Even(n, p int) (Partition, error) {
	if p <= 0 || n < p {
		return Partition{}, fmt.Errorf("partition: cannot evenly split %d blocks into %d stages", n, p)
	}
	if n%p != 0 {
		return Partition{}, fmt.Errorf("partition: %d blocks not divisible by %d stages", n, p)
	}
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	return New(bounds, n)
}
