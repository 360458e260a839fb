// Package nn implements a miniature transformer stack — embedding, residual
// attention and FFN sub-blocks (exactly the sub-layer granularity AutoPipe
// plans over, paper Fig. 3), and a language-model head — with explicit,
// context-passing backward passes.
//
// Backward contexts are first-class values rather than module state so that
// a pipeline stage can keep several micro-batches in flight simultaneously,
// which is what the 1F1B schedule requires (package train).
package nn

import (
	"fmt"
	"math"

	"autopipe/internal/tensor"
)

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape...)}
}

// Ctx carries whatever a module needs to run its backward pass for one
// specific forward invocation.
type Ctx any

// Module is one differentiable block.
type Module interface {
	// Forward computes the output and the backward context for one input.
	Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx)
	// Backward consumes a context and the output gradient, accumulates
	// parameter gradients, and returns the input gradient.
	Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor
	// Params lists the module's learnable tensors.
	Params() []*Param
}

// Linear is y = xW + b over the last axis.
type Linear struct {
	In, Out int
	W, B    *Param
	// NoBias drops the additive bias.
	NoBias bool
}

// NewLinear builds a Linear with N(0, std²) weights.
func NewLinear(name string, in, out int, std float64, rng *tensor.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: newParam(name+".w", tensor.Randn(rng, std, in, out)),
		B: newParam(name+".b", tensor.New(out)),
	}
	return l
}

type linearCtx struct{ x *tensor.Tensor }

// Forward implements Module.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	rows, cols := x.Rows()
	if cols != l.In {
		panic(fmt.Sprintf("nn: linear %s: input width %d, want %d", l.W.Name, cols, l.In))
	}
	x2 := x.Reshape(rows, cols)
	y := tensor.MatMul(x2, l.W.W)
	if !l.NoBias {
		for r := 0; r < rows; r++ {
			row := y.Data[r*l.Out : (r+1)*l.Out]
			for j, b := range l.B.W.Data {
				row[j] += b
			}
		}
	}
	outShape := append(append([]int(nil), x.Shape[:len(x.Shape)-1]...), l.Out)
	return y.Reshape(outShape...), linearCtx{x: x}
}

// Backward implements Module.
func (l *Linear) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(linearCtx)
	rows, _ := c.x.Rows()
	x2 := c.x.Reshape(rows, l.In)
	dy2 := dy.Reshape(rows, l.Out)
	tensor.MatMulT1Add(l.W.Grad, x2, dy2)
	if !l.NoBias {
		for r := 0; r < rows; r++ {
			row := dy2.Data[r*l.Out : (r+1)*l.Out]
			for j := range l.B.Grad.Data {
				l.B.Grad.Data[j] += row[j]
			}
		}
	}
	dx := tensor.MatMulT2(dy2, l.W.W)
	return dx.Reshape(c.x.Shape...)
}

// Params implements Module.
func (l *Linear) Params() []*Param {
	if l.NoBias {
		return []*Param{l.W}
	}
	return []*Param{l.W, l.B}
}

// LayerNorm normalizes the last axis with learnable gain and bias.
type LayerNorm struct {
	Dim  int
	G, B *Param
	Eps  float64
}

// NewLayerNorm builds a LayerNorm initialized to identity.
func NewLayerNorm(name string, dim int) *LayerNorm {
	g := tensor.New(dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{Dim: dim, G: newParam(name+".g", g), B: newParam(name+".b", tensor.New(dim)), Eps: 1e-5}
}

type lnCtx struct {
	xhat   *tensor.Tensor
	invStd []float64
}

// Forward implements Module.
func (l *LayerNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	rows, cols := x.Rows()
	if cols != l.Dim {
		panic(fmt.Sprintf("nn: layernorm %s: width %d, want %d", l.G.Name, cols, l.Dim))
	}
	y := tensor.New(x.Shape...)
	xhat := tensor.New(x.Shape...)
	invStd := make([]float64, rows)
	for r := 0; r < rows; r++ {
		row := x.Data[r*cols : (r+1)*cols]
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(cols)
		var vr float64
		for _, v := range row {
			d := v - mean
			vr += d * d
		}
		vr /= float64(cols)
		is := 1 / math.Sqrt(vr+l.Eps)
		invStd[r] = is
		for j, v := range row {
			h := (v - mean) * is
			xhat.Data[r*cols+j] = h
			y.Data[r*cols+j] = h*l.G.W.Data[j] + l.B.W.Data[j]
		}
	}
	return y, lnCtx{xhat: xhat, invStd: invStd}
}

// Backward implements Module.
func (l *LayerNorm) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(lnCtx)
	rows, cols := dy.Rows()
	dx := tensor.New(dy.Shape...)
	n := float64(cols)
	for r := 0; r < rows; r++ {
		dyr := dy.Data[r*cols : (r+1)*cols]
		xh := c.xhat.Data[r*cols : (r+1)*cols]
		var sumDxh, sumDxhXh float64
		for j := 0; j < cols; j++ {
			dxh := dyr[j] * l.G.W.Data[j]
			sumDxh += dxh
			sumDxhXh += dxh * xh[j]
			l.G.Grad.Data[j] += dyr[j] * xh[j]
			l.B.Grad.Data[j] += dyr[j]
		}
		is := c.invStd[r]
		for j := 0; j < cols; j++ {
			dxh := dyr[j] * l.G.W.Data[j]
			dx.Data[r*cols+j] = is / n * (n*dxh - sumDxh - xh[j]*sumDxhXh)
		}
	}
	return dx
}

// Params implements Module.
func (l *LayerNorm) Params() []*Param { return []*Param{l.G, l.B} }

// GELU is the tanh-approximated Gaussian error linear unit used by GPT-2.
type GELU struct{}

type geluCtx struct{ x *tensor.Tensor }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward implements Module.
func (GELU) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y := tensor.New(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
	}
	return y, geluCtx{x: x}
}

// Backward implements Module.
func (GELU) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(geluCtx)
	dx := tensor.New(dy.Shape...)
	for i, v := range c.x.Data {
		u := geluC * (v + 0.044715*v*v*v)
		t := math.Tanh(u)
		du := geluC * (1 + 3*0.044715*v*v)
		dx.Data[i] = dy.Data[i] * (0.5*(1+t) + 0.5*v*(1-t*t)*du)
	}
	return dx
}

// Params implements Module.
func (GELU) Params() []*Param { return nil }
