// Package measure holds the statistics, arrival schedules and span
// bookkeeping shared by the benchmark runner and the compare command.
package measure

import (
	"errors"
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the middle pair for an even
// count). xs is not modified. It returns NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points that divide xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so spreads reported here match the ones the
// benchmark's acceptance rule computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("measure: quartiles need at least two values")
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// tailLadder lists the percentiles TailPercentile chooses from, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest percentile of the ladder 99.99, 99.9,
// 99, 95, 90, 75, 50 that leaves at least ten of n samples strictly beyond
// its nearest-rank position, or 0 when n < 20 leaves none. A timing is
// reported as its median and this percentile together with n.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples: the smallest r with r/n >= p/100.
func rank(p float64, n int) int {
	// The small slack keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// Percentile returns the nearest-rank p-th percentile of xs (p in (0,100]),
// or NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// GeoMean returns the geometric mean of xs, the average the paper's
// speed-up tables and this benchmark use across functions. It returns NaN
// when xs is empty or holds a value that is not positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
