// Package tensor provides the dense float64 tensors under the miniature
// training framework (packages nn and train) that stands in for the paper's
// PyTorch/Megatron-LM backend. The semantic claims it supports —
// pipeline-parallel training is bit-compatible with serial training,
// micro-batch slicing does not change gradients — need exact, auditable
// arithmetic, so every kernel has a fixed summation order. The matmul
// kernels are register-blocked for speed, yet bit-identical to the plain
// one-term-per-pass loops kept in tensor_test.go as the reference.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape (no copy).
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("tensor: %d elements cannot fill shape %v", len(data), shape))
	}
	return t
}

// Size returns the element count.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dim returns the length of axis i (negative i counts from the back).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.Shape)
	}
	return t.Shape[i]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Rows reinterprets the tensor as a [rows, cols] matrix where cols is the
// last dimension.
func (t *Tensor) Rows() (rows, cols int) {
	cols = t.Shape[len(t.Shape)-1]
	return t.Size() / cols, cols
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Reshape returns a view with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if out.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return out
}

// Add returns t + o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	mustSameShape("Add", t, o)
	out := t.Clone()
	for i, v := range o.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace accumulates o into t.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustSameShape("AddInPlace", t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale returns t * s.
func (t *Tensor) Scale(s float64) *Tensor {
	out := t.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ScaleInPlace multiplies t by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Zero clears the tensor.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// MatMul returns a @ b for 2-D matrices [m,k] x [k,n].
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		accumRow(out.Data[i*n:(i+1)*n], a.Data[i*k:], 1, k, b.Data, n)
	}
	return out
}

// MatMulT1 returns aᵀ @ b for a [k,m], b [k,n] -> [m,n].
func MatMulT1(a, b *Tensor) *Tensor {
	k, m, n := t1Shapes("MatMulT1", a, b)
	out := New(m, n)
	for i := 0; i < m; i++ {
		accumRow(out.Data[i*n:(i+1)*n], a.Data[i:], m, k, b.Data, n)
	}
	return out
}

// t1Chunk is the column width of MatMulT1Add's stack temporary.
const t1Chunk = 128

// MatMulT1Add accumulates aᵀ @ b into dst ([m,n], a [k,m], b [k,n]). It
// equals dst.AddInPlace(MatMulT1(a, b)) bit for bit — each product row is
// summed in a zeroed temporary before it is added — without allocating.
//
//hot:accumulates every Linear weight gradient of a training step
func MatMulT1Add(dst, a, b *Tensor) {
	k, m, n := t1Shapes("MatMulT1Add", a, b)
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT1Add into %v, want [%d %d]", dst.Shape, m, n))
	}
	var tmp [t1Chunk]float64
	for i := 0; i < m; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j0 := 0; j0 < n; j0 += t1Chunk {
			d := drow[j0:min(j0+t1Chunk, n)]
			t := tmp[:len(d)]
			clear(t)
			accumRow(t, a.Data[i:], m, k, b.Data[j0:], n)
			for j, v := range t {
				d[j] += v
			}
		}
	}
}

func t1Shapes(op string, a, b *Tensor) (k, m, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s shapes %v x %v", op, a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

// accumRow adds Σ_p coef[p*stride] · b[p*ldb : p*ldb+len(o)] into o for p in
// [0,k). Every element sums its terms in ascending p, skipping zero
// coefficients, exactly like the one-term-per-pass loop; the terms are
// gathered four non-zero coefficients at a time so each pass over o folds
// in four rows of b.
func accumRow(o, coef []float64, stride, k int, b []float64, ldb int) {
	n := len(o)
	var c [4]float64
	var r [4]int
	g := 0
	for p := 0; p < k; p++ {
		cv := coef[p*stride]
		if cv == 0 {
			continue
		}
		c[g], r[g] = cv, p*ldb
		if g++; g == 4 {
			axpy4(o, c[0], c[1], c[2], c[3], b[r[0]:][:n], b[r[1]:][:n], b[r[2]:][:n], b[r[3]:][:n])
			g = 0
		}
	}
	for t := 0; t < g; t++ {
		axpy(o, c[t], b[r[t]:][:n])
	}
}

// axpy4 computes o[j] = o[j] + c0·b0[j] + c1·b1[j] + c2·b2[j] + c3·b3[j],
// left to right.
func axpy4(o []float64, c0, c1, c2, c3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j, v := range o {
		o[j] = v + c0*b0[j] + c1*b1[j] + c2*b2[j] + c3*b3[j]
	}
}

func axpy(o []float64, c float64, b []float64) {
	b = b[:len(o)]
	for j, v := range o {
		o[j] = v + c*b[j]
	}
}

// MatMulT2 returns a @ bᵀ for a [m,k], b [n,k] -> [m,n]. Each pass over a's
// row computes four dot products, each summed in ascending k.
func MatMulT2(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT2 shapes %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k:][:len(arow)]
			b1 := b.Data[(j+1)*k:][:len(arow)]
			b2 := b.Data[(j+2)*k:][:len(arow)]
			b3 := b.Data[(j+3)*k:][:len(arow)]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k:][:len(arow)]
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// SplitRows returns the first n rows and the remainder of a tensor whose
// leading axis is the batch dimension.
func (t *Tensor) SplitRows(n int) (head, tail *Tensor) {
	b := t.Shape[0]
	if n <= 0 || n >= b {
		panic(fmt.Sprintf("tensor: SplitRows(%d) of batch %d", n, b))
	}
	rowSize := t.Size() / b
	headShape := append([]int{n}, t.Shape[1:]...)
	tailShape := append([]int{b - n}, t.Shape[1:]...)
	return FromSlice(t.Data[:n*rowSize], headShape...),
		FromSlice(t.Data[n*rowSize:], tailShape...)
}

// ConcatRows concatenates tensors along the leading (batch) axis.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	total := 0
	for _, p := range parts {
		total += p.Shape[0]
	}
	shape := append([]int{total}, parts[0].Shape[1:]...)
	out := New(shape...)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += p.Size()
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(a, b *Tensor) float64 {
	mustSameShape("MaxAbsDiff", a, b)
	var mx float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// RNG is a small deterministic generator (xorshift*) for reproducible
// initialization and synthetic data, independent of math/rand changes.
type RNG struct{ state uint64 }

// NewRNG seeds a generator (seed 0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / float64(1<<53) }

// Norm returns a standard normal value (Box-Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Intn returns a uniform integer in [0,n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Randn fills a new tensor with N(0, std²) values.
func Randn(rng *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Norm() * std
	}
	return t
}
