package nn

import (
	"fmt"
	"math"

	"autopipe/internal/tensor"
)

// CausalSelfAttention is multi-head self-attention over [B,S,H] inputs,
// masked causally by default (GPT); with Bidirectional set every position
// attends to every other (BERT).
type CausalSelfAttention struct {
	Hidden, Heads  int
	Wq, Wk, Wv, Wo *Linear
	// Bidirectional drops the causal mask (BERT-style encoding).
	Bidirectional bool
}

// NewCausalSelfAttention builds the four projections with a causal mask.
func NewCausalSelfAttention(name string, hidden, heads int, rng *tensor.RNG) *CausalSelfAttention {
	if hidden%heads != 0 {
		panic(fmt.Sprintf("nn: attention %s: %d heads do not divide hidden %d", name, heads, hidden))
	}
	std := 0.02
	return &CausalSelfAttention{
		Hidden: hidden, Heads: heads,
		Wq: NewLinear(name+".q", hidden, hidden, std, rng),
		Wk: NewLinear(name+".k", hidden, hidden, std, rng),
		Wv: NewLinear(name+".v", hidden, hidden, std, rng),
		Wo: NewLinear(name+".o", hidden, hidden, std, rng),
	}
}

// NewBidirectionalSelfAttention builds BERT-style unmasked attention.
func NewBidirectionalSelfAttention(name string, hidden, heads int, rng *tensor.RNG) *CausalSelfAttention {
	a := NewCausalSelfAttention(name, hidden, heads, rng)
	a.Bidirectional = true
	return a
}

// limit returns the last attendable position (inclusive) for query i.
func (a *CausalSelfAttention) limit(i, S int) int {
	if a.Bidirectional {
		return S - 1
	}
	return i
}

type attnCtx struct {
	qCtx, kCtx, vCtx, oCtx Ctx
	q, k, v                *tensor.Tensor // [B,S,H]
	probs                  *tensor.Tensor // [B,heads,S,S]
	b, s                   int
}

// Forward implements Module. x must be [B,S,H].
func (a *CausalSelfAttention) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	if len(x.Shape) != 3 || x.Shape[2] != a.Hidden {
		panic(fmt.Sprintf("nn: attention: input shape %v, want [B,S,%d]", x.Shape, a.Hidden))
	}
	B, S := x.Shape[0], x.Shape[1]
	nh := a.Heads
	hd := a.Hidden / nh
	scale := 1 / math.Sqrt(float64(hd))

	q, qc := a.Wq.Forward(x)
	k, kc := a.Wk.Forward(x)
	v, vc := a.Wv.Forward(x)

	probs := tensor.New(B, nh, S, S)
	ctxOut := tensor.New(B, S, a.Hidden)
	// head returns position s's hd-wide slice of head h in t.
	head := func(t *tensor.Tensor, b, s, h int) []float64 {
		return t.Data[(b*S+s)*a.Hidden+h*hd:][:hd]
	}
	for b := 0; b < B; b++ {
		for h := 0; h < nh; h++ {
			for i := 0; i < S; i++ {
				// Position i attends to 0..lim (lim = i when causal).
				lim := a.limit(i, S)
				row := probs.Data[((b*nh+h)*S+i)*S : ((b*nh+h)*S+i)*S+S]
				qi := head(q, b, i, h)
				mx := math.Inf(-1)
				for j := 0; j <= lim; j++ {
					kj := head(k, b, j, h)[:len(qi)]
					var s64 float64
					for d, qv := range qi {
						s64 += qv * kj[d]
					}
					row[j] = s64 * scale
					if row[j] > mx {
						mx = row[j]
					}
				}
				var sum float64
				for j := 0; j <= lim; j++ {
					row[j] = math.Exp(row[j] - mx)
					sum += row[j]
				}
				for j := 0; j <= lim; j++ {
					row[j] /= sum
				}
				// ctx[d] = Σ_j p[j]*v[j,d], summed over j in order per d.
				ci := head(ctxOut, b, i, h)
				for j := 0; j <= lim; j++ {
					p, vj := row[j], head(v, b, j, h)[:len(ci)]
					for d, cv := range ci {
						ci[d] = cv + p*vj[d]
					}
				}
			}
		}
	}
	y, oc := a.Wo.Forward(ctxOut)
	return y, attnCtx{qCtx: qc, kCtx: kc, vCtx: vc, oCtx: oc, q: q, k: k, v: v, probs: probs, b: B, s: S}
}

// Backward implements Module.
func (a *CausalSelfAttention) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(attnCtx)
	B, S := c.b, c.s
	nh := a.Heads
	hd := a.Hidden / nh
	scale := 1 / math.Sqrt(float64(hd))

	dCtx := a.Wo.Backward(c.oCtx, dy) // [B,S,H]

	dq := tensor.New(B, S, a.Hidden)
	dk := tensor.New(B, S, a.Hidden)
	dv := tensor.New(B, S, a.Hidden)
	head := func(t *tensor.Tensor, b, s, h int) []float64 {
		return t.Data[(b*S+s)*a.Hidden+h*hd:][:hd]
	}
	dp := make([]float64, S)
	for b := 0; b < B; b++ {
		for h := 0; h < nh; h++ {
			for i := 0; i < S; i++ {
				lim := a.limit(i, S)
				row := c.probs.Data[((b*nh+h)*S+i)*S : ((b*nh+h)*S+i)*S+S]
				g, qi, dqi := head(dCtx, b, i, h), head(c.q, b, i, h), head(dq, b, i, h)
				dqi = dqi[:len(qi)]
				// dprobs[j] = Σ_d dCtx[i,d] * v[j,d]; dv[j,d] += p[j]*dCtx[i,d].
				for j := 0; j <= lim; j++ {
					vj, dvj := head(c.v, b, j, h)[:len(g)], head(dv, b, j, h)[:len(g)]
					var s64 float64
					for d, gv := range g {
						s64 += gv * vj[d]
						dvj[d] += row[j] * gv
					}
					dp[j] = s64
				}
				// Softmax backward: ds[j] = p[j]*(dp[j] - Σ dp*p).
				var dot float64
				for j := 0; j <= lim; j++ {
					dot += dp[j] * row[j]
				}
				for j := 0; j <= lim; j++ {
					ds := row[j] * (dp[j] - dot) * scale
					kj, dkj := head(c.k, b, j, h)[:len(qi)], head(dk, b, j, h)[:len(qi)]
					for d, qv := range qi {
						dqi[d] += ds * kj[d]
						dkj[d] += ds * qv
					}
				}
			}
		}
	}
	dx := a.Wq.Backward(c.qCtx, dq)
	dx.AddInPlace(a.Wk.Backward(c.kCtx, dk))
	dx.AddInPlace(a.Wv.Backward(c.vCtx, dv))
	return dx
}

// Params implements Module.
func (a *CausalSelfAttention) Params() []*Param {
	var ps []*Param
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}
