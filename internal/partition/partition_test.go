package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
)

func buildBlocks(t *testing.T) *model.Blocks {
	t.Helper()
	cl := config.DefaultCluster()
	bl, err := model.Build(config.GPT2_345M(), cost.Geometry{MicroBatch: 4, Checkpoint: true},
		cl.Device, cl.Network, model.SubLayer)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		bounds []int
		n      int
		ok     bool
	}{
		{[]int{0, 5, 10}, 10, true},
		{[]int{0, 10}, 10, true},
		{[]int{0}, 10, false},
		{[]int{1, 10}, 10, false},
		{[]int{0, 9}, 10, false},
		{[]int{0, 5, 5, 10}, 10, false},
		{[]int{0, 7, 3, 10}, 10, false},
	} {
		_, err := New(tc.bounds, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("New(%v, %d): err=%v, want ok=%v", tc.bounds, tc.n, err, tc.ok)
		}
	}
}

func TestBalanceMinimizesMaxStage(t *testing.T) {
	weights := []float64{5, 1, 1, 1, 1, 1, 5}
	part, err := Balance(weights, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal max-stage weight is 5 (the heavy blocks isolated enough).
	maxStage := 0.0
	for s := 0; s < part.Stages(); s++ {
		lo, hi := part.Stage(s)
		var w float64
		for _, x := range weights[lo:hi] {
			w += x
		}
		if w > maxStage {
			maxStage = w
		}
	}
	if maxStage > 5+1e-9 {
		t.Errorf("Balance gave max stage %v, optimal is 5 (bounds %v)", maxStage, part.Bounds)
	}
}

func TestBalanceAgainstBruteForce(t *testing.T) {
	// Property: the DP's max-stage weight equals the brute-force optimum
	// over all contiguous partitions.
	prop := func(seed uint8, pRaw uint8) bool {
		rng := uint64(seed) + 1
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return float64(rng%97) + 1
		}
		n := 5 + int(seed%6)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = next()
		}
		p := 2 + int(pRaw)%3
		if p > n {
			p = n
		}
		part, err := Balance(weights, p)
		if err != nil {
			return false
		}
		got := maxStageWeight(weights, part.Bounds)
		best := math.Inf(1)
		var enumerate func(bounds []int, pos int)
		enumerate = func(bounds []int, pos int) {
			if len(bounds) == p-1 {
				full := append(append([]int{0}, bounds...), n)
				if w := maxStageWeight(weights, full); w < best {
					best = w
				}
				return
			}
			for nxt := pos + 1; nxt <= n-(p-2-len(bounds))-1; nxt++ {
				enumerate(append(bounds, nxt), nxt)
			}
		}
		enumerate([]int{}, 0)
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func maxStageWeight(weights []float64, bounds []int) float64 {
	var mx float64
	for i := 1; i < len(bounds); i++ {
		var w float64
		for _, x := range weights[bounds[i-1]:bounds[i]] {
			w += x
		}
		if w > mx {
			mx = w
		}
	}
	return mx
}

func TestBalanceErrors(t *testing.T) {
	if _, err := Balance([]float64{1, 2}, 0); err == nil {
		t.Error("want error for zero stages")
	}
	if _, err := Balance([]float64{1, 2}, 3); err == nil {
		t.Error("want error for more stages than blocks")
	}
	if _, err := Balance([]float64{1, -2, 3}, 2); err == nil {
		t.Error("want error for negative weight")
	}
	for _, bad := range [][]float64{
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{math.MaxFloat64, math.MaxFloat64, 1},
	} {
		if _, err := Balance(bad, 2); err == nil {
			t.Errorf("Balance(%v): want error for non-finite weights", bad)
		}
	}
}

// TestBalancePrefix checks the master-move rebalance: a Split of a block
// prefix re-balances only the stages inside it, which the caller writes into
// the leading bounds of an otherwise untouched partition.
func TestBalancePrefix(t *testing.T) {
	weights := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	part, err := New([]int{0, 1, 4, 6, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(weights, part.Stages())
	if err != nil {
		t.Fatal(err)
	}
	reb := part.Clone()
	if err := tab.Split(reb.Bounds[2], 2, reb.Bounds[:3]); err != nil {
		t.Fatal(err)
	}
	// First two stages cover blocks [0,4) and rebalance to 2+2.
	if reb.Bounds[1] != 2 {
		t.Errorf("prefix split bounds = %v, want split at 2", reb.Bounds)
	}
	// Later bounds untouched.
	if reb.Bounds[2] != 4 || reb.Bounds[3] != 6 || reb.Bounds[4] != 8 {
		t.Errorf("prefix split disturbed suffix: %v", reb.Bounds)
	}
	for _, tc := range []struct{ end, stages, nBounds int }{
		{4, 0, 1},  // zero stages
		{4, 5, 6},  // more stages than the table covers
		{9, 2, 3},  // prefix longer than the array
		{1, 2, 3},  // fewer blocks than stages
		{4, 2, 2},  // bounds buffer of the wrong length
		{-1, 1, 2}, // negative prefix
	} {
		if err := tab.Split(tc.end, tc.stages, make([]int, tc.nBounds)); err == nil {
			t.Errorf("Split(%d, %d) into %d bounds: want error", tc.end, tc.stages, tc.nBounds)
		}
	}
}

// TestTableMatchesReferenceBalance is the table's differential oracle: for
// random weights (zeros included, so equal-cost splits tie) every prefix
// Split must equal the pre-table Balance run on that prefix alone.
func TestTableMatchesReferenceBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pairs := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(14)
		weights := make([]float64, n)
		for i := range weights {
			switch rng.Intn(4) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = float64(1 + rng.Intn(3))
			default:
				weights[i] = rng.Float64() * 5
			}
		}
		maxStages := 1 + rng.Intn(n)
		tab, err := NewTable(weights, maxStages)
		if err != nil {
			t.Fatal(err)
		}
		for end := 1; end <= n; end++ {
			for stages := 1; stages <= maxStages && stages <= end; stages++ {
				want, err := referenceBalance(weights[:end], stages)
				if err != nil {
					t.Fatalf("reference %v into %d: %v", weights[:end], stages, err)
				}
				got := make([]int, stages+1)
				if err := tab.Split(end, stages, got); err != nil {
					t.Fatalf("Split(%d, %d) over %v: %v", end, stages, weights, err)
				}
				if !reflect.DeepEqual(got, want.Bounds) {
					t.Fatalf("weights %v, prefix %d, %d stages: Split %v, reference %v", weights, end, stages, got, want.Bounds)
				}
				pairs++
			}
		}
	}
	t.Logf("%d (prefix, stages) pairs", pairs)
}

// TestSplitAllocationFree pins the backtrack at zero allocations.
func TestSplitAllocationFree(t *testing.T) {
	weights := make([]float64, 50)
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	tab, err := NewTable(weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([]int, 9)
	if allocs := testing.AllocsPerRun(50, func() { _ = tab.Split(40, 8, bounds) }); allocs != 0 {
		t.Errorf("Split allocates %v times per call, want 0", allocs)
	}
}

// referenceBalance is Algorithm 1 as Balance ran it before the shared
// table: a fresh nested-slice DP per call. It is the oracle of
// TestTableMatchesReferenceBalance.
func referenceBalance(weights []float64, p int) (Partition, error) {
	n := len(weights)
	if p <= 0 {
		return Partition{}, fmt.Errorf("partition: pipeline depth must be positive, got %d", p)
	}
	if n < p {
		return Partition{}, fmt.Errorf("partition: cannot split %d blocks into %d stages", n, p)
	}
	prefix := make([]float64, n+1)
	for i, w := range weights {
		if w < 0 {
			return Partition{}, fmt.Errorf("partition: negative block weight %g at index %d", w, i)
		}
		prefix[i+1] = prefix[i] + w
	}

	const inf = math.MaxFloat64
	time := make([][]float64, n+1)
	from := make([][]int, n+1)
	for i := 0; i <= n; i++ {
		time[i] = make([]float64, p+1)
		from[i] = make([]int, p+1)
		for j := range time[i] {
			time[i][j] = inf
			from[i][j] = -1
		}
	}
	time[0][0] = 0
	for i := 1; i <= n; i++ {
		maxJ := p
		if i < maxJ {
			maxJ = i
		}
		for j := 1; j <= maxJ; j++ {
			for k := j - 1; k < i; k++ {
				if time[k][j-1] == inf {
					continue
				}
				cand := prefix[i] - prefix[k]
				if time[k][j-1] > cand {
					cand = time[k][j-1]
				}
				if cand < time[i][j] {
					time[i][j] = cand
					from[i][j] = k
				}
			}
		}
	}
	if time[n][p] == inf {
		return Partition{}, fmt.Errorf("partition: no feasible %d-stage partition of %d blocks", p, n)
	}

	bounds := make([]int, p+1)
	bounds[p] = n
	for j, i := p, n; j > 0; j-- {
		i = from[i][j]
		bounds[j-1] = i
	}
	return New(bounds, n)
}

func TestEven(t *testing.T) {
	part, err := Even(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if part.Size(s) != 3 {
			t.Errorf("stage %d has %d blocks, want 3", s, part.Size(s))
		}
	}
	if _, err := Even(10, 4); err == nil {
		t.Error("want error for indivisible block count")
	}
}

func TestStageTimesAndParams(t *testing.T) {
	bl := buildBlocks(t)
	part, err := Balance(bl.Weights(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f, b := part.StageTimes(bl)
	var totalF, totalB float64
	for i := range f {
		totalF += f[i]
		totalB += b[i]
		if f[i] <= 0 || b[i] <= 0 {
			t.Errorf("stage %d has non-positive times f=%v b=%v", i, f[i], b[i])
		}
	}
	if math.Abs(totalF-bl.TotalFwd()) > 1e-12*totalF {
		t.Errorf("stage forwards sum to %v, model total %v", totalF, bl.TotalFwd())
	}
	var params int64
	for _, p := range part.StageParams(bl) {
		params += p
	}
	if params != bl.TotalParams() {
		t.Errorf("stage params sum to %d, model total %d", params, bl.TotalParams())
	}
}

func TestLayerCountsSumToModelLayers(t *testing.T) {
	bl := buildBlocks(t)
	part, err := Balance(bl.Weights(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var layers float64
	for _, l := range part.LayerCounts(bl) {
		layers += l
	}
	if layers != float64(bl.Model.Layers) {
		t.Errorf("layer counts sum to %v, want %d", layers, bl.Model.Layers)
	}
}

func TestImbalanceOfBalancedIsLow(t *testing.T) {
	bl := buildBlocks(t)
	balanced, _ := Balance(bl.Weights(), 4)
	skewed, _ := New([]int{0, 5, 10, 15, 50}, bl.Len())
	if balanced.Imbalance(bl) >= skewed.Imbalance(bl) {
		t.Errorf("balanced imbalance %v not below skewed %v", balanced.Imbalance(bl), skewed.Imbalance(bl))
	}
}

func TestStdDev(t *testing.T) {
	if s := StdDev(nil); s != 0 {
		t.Errorf("StdDev(nil) = %v", s)
	}
	if s := StdDev([]float64{3, 3, 3}); s != 0 {
		t.Errorf("StdDev(const) = %v", s)
	}
	if s := StdDev([]float64{1, 3}); math.Abs(s-1) > 1e-12 {
		t.Errorf("StdDev({1,3}) = %v, want 1", s)
	}
}

func TestCloneEqualKey(t *testing.T) {
	p, _ := New([]int{0, 3, 7}, 7)
	q := p.Clone()
	if !p.Equal(q) || p.Key() != q.Key() {
		t.Error("clone not equal to original")
	}
	q.Bounds[1] = 4
	if p.Equal(q) {
		t.Error("mutated clone still equal")
	}
	if p.Bounds[1] != 3 {
		t.Error("clone shares backing array with original")
	}
}

// TestKeyMatchesFormattedForm pins Key byte for byte to the "%d," form it
// has always produced; cache keys and visited sets depend on it.
func TestKeyMatchesFormattedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []Partition{{}, {Bounds: []int{0, 1}}, {Bounds: []int{-7, 0, 1 << 30, math.MaxInt}}}
	for i := 0; i < 200; i++ {
		bounds := make([]int, 2+rng.Intn(40))
		for j := 1; j < len(bounds); j++ {
			bounds[j] = bounds[j-1] + 1 + rng.Intn(1000)
		}
		cases = append(cases, Partition{Bounds: bounds})
	}
	for _, p := range cases {
		var sb strings.Builder
		for _, b := range p.Bounds {
			fmt.Fprintf(&sb, "%d,", b)
		}
		if got, want := p.Key(), sb.String(); got != want {
			t.Fatalf("Key(%v) = %q, want %q", p.Bounds, got, want)
		}
	}
}
