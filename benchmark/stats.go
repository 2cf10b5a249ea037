package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// median returns the middle value of vs, the mean of the middle two
// for an even count, and NaN for none.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// the sorted values, and NaN for none.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	lo := int(at)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (at-float64(lo))*(s[hi]-s[lo])
}

// p50 returns the median of round-trip samples, leaving them in place.
func p50(ns []int32) float64 {
	if len(ns) == 0 {
		return math.NaN()
	}
	s := append([]int32(nil), ns...)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method),
// so spreads printed here match the ones the driver takes.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(median(vs))
}

// percentiles summarises round-trip samples, which it sorts in place.
type percentiles struct {
	n       int
	p50     float64
	p99     float64
	top     float64 // the highest percentile with at least ten samples beyond it
	topRank float64 // which percentile that is, e.g. 99.99
}

func summarise(ns []int32) percentiles {
	n := len(ns)
	if n == 0 {
		return percentiles{p50: math.NaN(), p99: math.NaN(), top: math.NaN(), topRank: math.NaN()}
	}
	slices.Sort(ns)
	at := func(p float64) float64 { return float64(ns[min(n-1, int(p/100*float64(n)))]) }
	out := percentiles{n: n, p50: at(50), p99: at(99), top: at(50), topRank: 50}
	for _, p := range []float64{90, 99, 99.9, 99.99, 99.999} {
		if float64(n)*(1-p/100) >= 10 {
			out.top, out.topRank = at(p), p
		}
	}
	return out
}

// note describes the sample for the table: its size and its tail.
func (p percentiles) note() string {
	return fmt.Sprintf("%d round trips, p%g %.1f us", p.n, p.topRank, p.top/1e3)
}
