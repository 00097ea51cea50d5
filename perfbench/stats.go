package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers, not
// a property of the distribution.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	k = max(1, min(n, k))
	return s[k-1], n-k >= minBeyond
}

// ratio returns num/den, or 0 when den is 0. Every ratio the benchmark
// prints is printed next to its base (see catalog.go), so a 0 with a 0
// base reads as "nothing to divide", not as a measured zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time range in nanoseconds since a common origin.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child: the parent's
// duration minus the length of the union of its children, each clipped to
// the parent. Children may overlap (concurrent stages) and are counted
// once where they do.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var covered int64
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return (parent.end - parent.start) - covered
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
