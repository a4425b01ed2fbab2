package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted. An empty
// sample has no quantile: NaN, which the result check rejects.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bestPerVariant is the wall statistic every gated time uses: the minimum
// of each variant's repeats, averaged over the variants. The minimum
// discards what the host added to an op (the only wall statistic that
// repeated on a shared 2-core box); the average over variants removes the
// luck of which variant happened to be fastest, so the figure does not
// hinge on one op.
func bestPerVariant(values []float64, variant []int, variants int) float64 {
	best := make([]float64, variants)
	for v := range best {
		best[v] = math.Inf(1)
	}
	for i, x := range values {
		best[variant[i]] = math.Min(best[variant[i]], x)
	}
	var seen []float64
	for _, b := range best {
		if !math.IsInf(b, 1) {
			seen = append(seen, b)
		}
	}
	return mean(seen)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
