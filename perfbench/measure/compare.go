package measure

import "fmt"

// Verdict is the outcome of comparing one metric on one workload between a
// base and a head set of runs.
type Verdict string

const (
	Improved   Verdict = "improved"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// Comparison is a verdict with the figures it rests on.
type Comparison struct {
	Verdict        Verdict
	Pairs          int
	HeadWins       int // pairs where head is strictly better
	BaseWins       int // pairs where base is strictly better
	BaseMedian     float64
	HeadMedian     float64
	BaseQ1, BaseQ3 float64
	HeadQ1, HeadQ3 float64
}

// Compare applies the paired-runs rule: base[i] and head[i] form pair i,
// and a side wins the comparison only when it is better in at least nine
// tenths of the pairs (ties count for neither) and the medians differ by
// more than the base runs' own interquartile range. Anything else is
// unresolved. higherBetter gives the metric's direction.
func Compare(base, head []float64, higherBetter bool) (Comparison, error) {
	n := min(len(base), len(head))
	if n < 2 {
		return Comparison{}, fmt.Errorf("measure: need at least two runs a side, have %d and %d", len(base), len(head))
	}
	var c Comparison
	c.Pairs = n
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < n; i++ {
		switch {
		case better(head[i], base[i]):
			c.HeadWins++
		case better(base[i], head[i]):
			c.BaseWins++
		}
	}
	var err error
	if c.BaseQ1, c.BaseMedian, c.BaseQ3, err = Quartiles(base); err != nil {
		return c, err
	}
	if c.HeadQ1, c.HeadMedian, c.HeadQ3, err = Quartiles(head); err != nil {
		return c, err
	}
	// Quartiles' middle cut is the median.
	apart := abs(c.HeadMedian-c.BaseMedian) > c.BaseQ3-c.BaseQ1
	c.Verdict = Unresolved
	switch {
	case apart && 10*c.HeadWins >= 9*n && better(c.HeadMedian, c.BaseMedian):
		c.Verdict = Improved
	case apart && 10*c.BaseWins >= 9*n && better(c.BaseMedian, c.HeadMedian):
		c.Verdict = Worse
	}
	return c, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
