package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || len(x.Data) != 24 {
		t.Errorf("size = %d", x.Size())
	}
	if x.Dim(0) != 2 || x.Dim(-1) != 4 {
		t.Errorf("dims = %d, %d", x.Dim(0), x.Dim(-1))
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted a non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice accepted a mismatched shape")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulTransposesAgree(t *testing.T) {
	// Property: MatMulT1(a,b) == MatMul(aᵀ,b) and MatMulT2(a,b) == MatMul(a,bᵀ).
	prop := func(seed uint8) bool {
		rng := NewRNG(uint64(seed) + 1)
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 3, 5)
		at := New(4, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				at.Data[j*3+i] = a.Data[i*4+j]
			}
		}
		x := MatMulT1(a, b) // aᵀ@b: [4,5]
		y := MatMul(at, b)
		if MaxAbsDiff(x, y) > 1e-12 {
			return false
		}
		c := Randn(rng, 1, 6, 4)
		bt2 := New(4, 6)
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				bt2.Data[j*6+i] = c.Data[i*4+j]
			}
		}
		u := MatMulT2(a.Reshape(3, 4), c) // a@cᵀ: [3,6]
		v := MatMul(a.Reshape(3, 4), bt2)
		return MaxAbsDiff(u, v) <= 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul accepted mismatched shapes")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestAddScaleClone(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{10, 20}, 2)
	z := x.Add(y)
	if z.Data[0] != 11 || z.Data[1] != 22 {
		t.Errorf("Add = %v", z.Data)
	}
	if x.Data[0] != 1 {
		t.Error("Add mutated its receiver")
	}
	x.AddInPlace(y)
	if x.Data[0] != 11 {
		t.Error("AddInPlace did not mutate")
	}
	s := y.Scale(0.5)
	if s.Data[0] != 5 || y.Data[0] != 10 {
		t.Error("Scale wrong or mutated receiver")
	}
	c := y.Clone()
	c.Data[0] = 99
	if y.Data[0] != 10 {
		t.Error("Clone shares storage")
	}
	c.Zero()
	if c.Data[1] != 0 {
		t.Error("Zero did not clear")
	}
}

func TestSplitConcatRoundTrip(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	a, b := x.SplitRows(1)
	if a.Shape[0] != 1 || b.Shape[0] != 3 {
		t.Fatalf("split shapes %v / %v", a.Shape, b.Shape)
	}
	back := ConcatRows(a, b)
	if MaxAbsDiff(back, x) != 0 {
		t.Error("split+concat is not the identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("SplitRows accepted an out-of-range count")
		}
	}()
	x.SplitRows(4)
}

func TestReshapeIsView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Error("Reshape copied instead of aliasing")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reshape accepted a size change")
		}
	}()
	x.Reshape(3)
}

func TestRNGDeterministicAndReasonable(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Norm samples have roughly zero mean and unit variance.
	rng := NewRNG(123)
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Errorf("Norm stats: mean %.3f variance %.3f", mean, variance)
	}
	// Intn stays in range.
	for i := 0; i < 1000; i++ {
		if v := rng.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	// Seed 0 is remapped, not degenerate.
	z := NewRNG(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("zero seed produced zeros")
	}
}

func TestRowsFlattening(t *testing.T) {
	x := New(2, 3, 5)
	r, c := x.Rows()
	if r != 6 || c != 5 {
		t.Errorf("Rows = %d x %d, want 6 x 5", r, c)
	}
}

// The one-term-per-pass matmul loops the blocked kernels replaced, kept
// verbatim as the bit-exact reference.

func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

func refMatMulT1(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

func refMatMulT2(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// sameBits reports the first element where got and want differ in their
// bit patterns, or -1. Any NaN equals any NaN: Go leaves NaN payloads
// unspecified, and which operand's payload an x86 add propagates depends
// on the operand order the compiler picks for a commutative op.
func sameBits(got, want *Tensor) int {
	if !got.SameShape(want) {
		return 0
	}
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// checkKernels runs every matmul kernel on operands built by fill and
// compares each with its reference bit for bit.
func checkKernels(t *testing.T, m, k, n int, fill func(*Tensor)) {
	t.Helper()
	tensors := func(shape ...int) *Tensor {
		x := New(shape...)
		fill(x)
		return x
	}
	a, b := tensors(m, k), tensors(k, n)   // MatMul
	at, bt := tensors(k, m), tensors(n, k) // MatMulT1 lhs, MatMulT2 rhs
	dst := tensors(m, n)
	want := dst.Clone()
	want.AddInPlace(refMatMulT1(at, b))
	MatMulT1Add(dst, at, b)
	for _, c := range []struct {
		name      string
		got, want *Tensor
	}{
		{"MatMul", MatMul(a, b), refMatMul(a, b)},
		{"MatMulT1", MatMulT1(at, b), refMatMulT1(at, b)},
		{"MatMulT2", MatMulT2(a, bt), refMatMulT2(a, bt)},
		{"MatMulT1Add", dst, want},
	} {
		if i := sameBits(c.got, c.want); i >= 0 {
			t.Fatalf("%s m=%d k=%d n=%d: element %d = %v (%#x), reference %v (%#x)", c.name, m, k, n, i,
				c.got.Data[i], math.Float64bits(c.got.Data[i]), c.want.Data[i], math.Float64bits(c.want.Data[i]))
		}
	}
}

// filler returns a seeded element generator: Gaussian values with a share
// of exact +0 and −0 (which exercise the zero-coefficient skip), and with
// special set, ±Inf and NaN as well.
func filler(rng *RNG, special bool) func(*Tensor) {
	return func(x *Tensor) {
		for i := range x.Data {
			switch r := rng.Intn(20); {
			case r < 3:
				x.Data[i] = 0
			case r == 3:
				x.Data[i] = math.Copysign(0, -1)
			case special && r == 4:
				x.Data[i] = math.Inf(1 - 2*rng.Intn(2))
			case special && r == 5:
				x.Data[i] = math.NaN()
			default:
				x.Data[i] = rng.Norm()
			}
		}
	}
}

// TestMatMulKernelsMatchReference sweeps shapes from 1 to 40 on every axis —
// multiples of four, the ragged sizes either side of them, and seeded random
// shapes — with zeros, −0, and non-finite inputs, and demands every kernel
// equal its one-term-per-pass reference bit for bit.
func TestMatMulKernelsMatchReference(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 31, 32, 33, 40}
	rng := NewRNG(2024)
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				checkKernels(t, m, k, n, filler(rng, false))
			}
		}
	}
	for i := 0; i < 3000; i++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		checkKernels(t, m, k, n, filler(rng, i%3 == 0))
	}
}

// TestMatMulT1AddChunks crosses MatMulT1Add's column-chunk boundary.
func TestMatMulT1AddChunks(t *testing.T) {
	rng := NewRNG(9)
	for _, n := range []int{t1Chunk - 1, t1Chunk, t1Chunk + 1, 2*t1Chunk + 3} {
		checkKernels(t, 3, 5, n, filler(rng, true))
	}
}

func TestMatMulT1AddAllocationFree(t *testing.T) {
	rng := NewRNG(3)
	a, b, dst := Randn(rng, 1, 32, 128), Randn(rng, 1, 32, 97), New(128, 97)
	if n := testing.AllocsPerRun(20, func() { MatMulT1Add(dst, a, b) }); n != 0 {
		t.Errorf("MatMulT1Add allocated %v times per call, want 0", n)
	}
}

func TestMatMulT1AddShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMulT1Add accepted a mis-shaped destination")
		}
	}()
	MatMulT1Add(New(3, 3), New(2, 3), New(2, 4))
}

// FuzzMatMul checks every kernel against its reference on fuzzed shapes and
// element bytes; a few byte values decode to +0, −0, ±Inf and NaN.
func FuzzMatMul(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(7), uint8(33), []byte{0, 0, 9, 1, 0, 200})
	f.Add(uint8(5), uint8(6), uint8(3), []byte{2, 3, 4, 17, 0, 1})
	f.Add(uint8(39), uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, m, k, n uint8, data []byte) {
		i := 0
		fill := func(x *Tensor) {
			for j := range x.Data {
				var c byte
				if len(data) > 0 {
					c = data[i%len(data)]
				}
				i++
				switch c {
				case 0:
					x.Data[j] = 0
				case 1:
					x.Data[j] = math.Copysign(0, -1)
				case 2:
					x.Data[j] = math.Inf(1)
				case 3:
					x.Data[j] = math.Inf(-1)
				case 4:
					x.Data[j] = math.NaN()
				default:
					x.Data[j] = float64(int8(c)) / 8
				}
			}
		}
		checkKernels(t, 1+int(m%40), 1+int(k%40), 1+int(n%40), fill)
	})
}
