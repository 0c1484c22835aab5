package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks, 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(v, 0.5).
func median(v []float64) float64 { return quantile(v, 0.5) }

// iqrPct is the inter-quartile range of v as a percentage of its
// median — the spread the benchmark reports beside every round median.
func iqrPct(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

// rankQuantile returns the q-quantile of v by the nearest-rank rule: the
// smallest value that at least the share q of v does not exceed.
func rankQuantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// ms converts durations to float milliseconds.
func ms(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	return out
}
