package measure

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6}, // two values extrapolate
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3, err := Quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one value: want an error")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 {
			if beyond := c.n - rank(c.want, c.n); beyond < 10 {
				t.Errorf("n=%d p=%v leaves %d samples beyond, want >= 10", c.n, c.want, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := Percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := Percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(1,4,16) = %v, want 4", got)
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if got := GeoMean(bad); !math.IsNaN(got) {
			t.Errorf("GeoMean(%v) = %v, want NaN", bad, got)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate = 2000.0
	dur := 5 * time.Second
	a := Poisson(rand.New(rand.NewSource(7)), rate, dur)
	b := Poisson(rand.New(rand.NewSource(7)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The count is fixed at rate*dur, whatever the seed.
	if got, want := len(a), int(rate*dur.Seconds()); got != want {
		t.Errorf("%v arrivals, want %v", got, want)
	}
	var gaps []float64
	prev := time.Duration(0)
	for i, at := range a {
		if at < prev || at >= dur {
			t.Fatalf("arrival %d at %v out of order or outside [0,%v)", i, at, dur)
		}
		gaps = append(gaps, (at - prev).Seconds())
		prev = at
	}
	// Exponential gaps: the median is ln2/rate and the mean 1/rate.
	if got, want := Median(gaps), math.Ln2/rate; math.Abs(got-want) > 0.05*want {
		t.Errorf("median gap %v, want about %v", got, want)
	}
	if c := Poisson(rand.New(rand.NewSource(8)), rate, dur); len(c) != len(a) {
		t.Errorf("seeds 7 and 8 gave %d and %d arrivals", len(a), len(c))
	} else if c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
	if Poisson(rand.New(rand.NewSource(1)), 0, dur) != nil {
		t.Error("zero rate should give no arrivals")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "phase", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "call", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "call", Start: ms(2), End: ms(5)},  // overlaps 2
		{ID: 4, Parent: 1, Name: "call", Start: ms(8), End: ms(12)}, // leaves the parent
		{ID: 5, Parent: 3, Name: "inner", Start: ms(2), End: ms(4)},
	}
	got := SelfTimes(spans)
	// phase: 10 - |[1,5] U [8,10]| = 10 - 6.
	if got["phase"] != ms(4) {
		t.Errorf("phase self time %v, want 4ms", got["phase"])
	}
	// call: 2 + (3 - 2) + 4 = 7.
	if got["call"] != ms(7) {
		t.Errorf("call self time %v, want 7ms", got["call"])
	}
	if got["inner"] != ms(2) {
		t.Errorf("inner self time %v, want 2ms", got["inner"])
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	for _, on := range []bool{false, true} {
		tr := NewTracer(on)
		root := tr.Begin("root", 0)
		child := tr.Begin("child", root.ID())
		if d := child.End(); d < 0 {
			t.Fatalf("negative duration %v", d)
		}
		root.End()
		spans := tr.Spans()
		if !on {
			if len(spans) != 0 {
				t.Errorf("tracer off recorded %d spans", len(spans))
			}
			continue
		}
		if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Name != "root" {
			t.Fatalf("spans = %+v, want root then its child", spans)
		}
		if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
			t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
		}
	}
}
