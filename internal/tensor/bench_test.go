package tensor

import (
	"fmt"
	"testing"
)

// The GPT-mini matmul shapes (m×k×n) of one training step: 32 tokens through
// the hidden-32 projections, the 4× FFN expansion and contraction, the
// vocab-97 head, and a sliced half micro-batch.
var benchShapes = [][3]int{{32, 32, 32}, {32, 32, 128}, {32, 128, 32}, {32, 32, 97}, {16, 32, 128}}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(1)
		x, w := Randn(rng, 1, m, k), Randn(rng, 1, k, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(x, w)
			}
		})
	}
}

// BenchmarkMatMulT1 times the weight-gradient product xᵀ·dy ([k,m]ᵀ·[k,n]).
func BenchmarkMatMulT1(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(1)
		x, dy := Randn(rng, 1, m, k), Randn(rng, 1, m, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulT1(x, dy)
			}
		})
	}
}

// BenchmarkMatMulT1Add is BenchmarkMatMulT1 accumulated into a gradient.
func BenchmarkMatMulT1Add(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(1)
		x, dy, g := Randn(rng, 1, m, k), Randn(rng, 1, m, n), New(k, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulT1Add(g, x, dy)
			}
		})
	}
}

// BenchmarkMatMulT2 times the input-gradient product dy·wᵀ ([m,n]·[k,n]ᵀ).
func BenchmarkMatMulT2(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(1)
		dy, w := Randn(rng, 1, m, n), Randn(rng, 1, k, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulT2(dy, w)
			}
		})
	}
}
