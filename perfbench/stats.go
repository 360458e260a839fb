package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of xs,
// which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samplesBeyond is how many of n samples lie above the q-th percentile; a
// tail is reported only where it leaves at least ten.
func samplesBeyond(n int, q float64) int {
	return int(float64(n) * (100 - q) / 100)
}

// point is one sample placed in time: at is when it completed (or was due),
// relative to the start of its phase.
type point struct {
	at time.Duration
	v  float64
}

// windows splits samples into consecutive windows of length w covering
// [0, total); a trailing partial window is dropped. w <= 0 is one window
// over the whole phase.
func windows(samples []point, w, total time.Duration) [][]float64 {
	if w <= 0 {
		w = total
	}
	n := int(total / w)
	if n < 1 {
		n = 1
	}
	out := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.at / w); i >= 0 && i < n {
			out[i] = append(out[i], s.v)
		}
	}
	return out
}

// windowMedian is the median over windows of a per-window statistic. Taking
// the median of several windows keeps a burst of load from other processes
// on the host, which lands in one or two windows, out of the figure.
func windowMedian(ws [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, w := range ws {
		if len(w) > 0 {
			per = append(per, stat(w))
		}
	}
	return median(per)
}

// pct is the q-th percentile as a per-window statistic.
func pct(q float64) func([]float64) float64 {
	return func(xs []float64) float64 { return percentile(append([]float64(nil), xs...), q) }
}
