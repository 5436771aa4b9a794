package rangered

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// The reductions below are the math.Round and int-to-float forms the
// generated polynomial data was trained against. ReduceExp*, ReduceLog must
// reproduce them bit for bit (r and Key) wherever a kernel or the generator
// reduces, or every committed coefficient table would be invalid.

func refReduceExp2(x float64) (float64, Key) {
	n := math.Round(x * 64)
	r := x - n/64
	ni := int32(n)
	return r, Key{Q: ni >> 6, J: ni & 63}
}

func refReduceExp(x float64) (float64, Key) {
	n := math.Round(x * InvLn2x64)
	r := (x - n*Ln2x64Hi) - n*Ln2x64Lo
	ni := int32(n)
	return r, Key{Q: ni >> 6, J: ni & 63}
}

func refReduceExp10(x float64) (float64, Key) {
	n := math.Round(x * InvLog10Of2x64)
	r := (x - n*Log10Of2x64Hi) - n*Log10Of2x64Lo
	ni := int32(n)
	return r, Key{Q: ni >> 6, J: ni & 63}
}

func refReduceLog(x float64) (float64, Key) {
	bits := math.Float64bits(x)
	e := int32(bits>>52) - 1023
	j := int32(bits>>45) & 127
	m := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	F := 1 + float64(j)/128
	f := (m - F) * RecipT[j]
	return f, Key{Q: e, J: j}
}

// sweepFloat32 hands every float32 bit pattern of the ranges to scan in
// chunks spread over GOMAXPROCS workers and returns up to 8 patterns scan
// rejected. scan takes a whole chunk so the reductions under test inline
// into its loop.
func sweepFloat32(ranges [][2]uint32, scan func(lo, hi uint32, bad func(uint32))) []uint32 {
	const chunk = 1 << 20
	type job struct{ lo, hi uint32 }
	jobs := make(chan job)
	var mu sync.Mutex
	var bad []uint32
	report := func(b uint32) {
		mu.Lock()
		if len(bad) < 8 {
			bad = append(bad, b)
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				scan(jb.lo, jb.hi, report)
			}
		}()
	}
	for _, rg := range ranges {
		for lo := rg[0]; lo < rg[1]; {
			hi := rg[1]
			if hi-lo > chunk {
				hi = lo + chunk
			}
			jobs <- job{lo, hi}
			lo = hi
		}
	}
	close(jobs)
	wg.Wait()
	return bad
}

func same(r1 float64, k1 Key, r2 float64, k2 Key) bool {
	return math.Float64bits(r1) == math.Float64bits(r2) && k1 == k2
}

// TestReduceIdentityExhaustive checks, at stride 1, that the inlinable
// reductions equal the reference forms on every float32 they can be asked
// to reduce: for the exponentials every finite float32 with 2^-27 <= |x| <
// 2^8, which contains each function's polynomial-path domain (the tiny
// plateaus end above 2^-27, the overflow and underflow cuts lie below
// 2^8); for the logarithms every positive finite float32, subnormals
// included.
func TestReduceIdentityExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive float32 sweep")
	}
	expLo := math.Float32bits(0x1p-27)
	expHi := math.Float32bits(0x1p8)
	expRanges := [][2]uint32{{expLo, expHi}, {expLo | 1<<31, expHi | 1<<31}}
	logRanges := [][2]uint32{{1, 0x7F800000}}
	for _, tc := range []struct {
		name      string
		ranges    [][2]uint32
		got, want func(float64) (float64, Key)
		scan      func(lo, hi uint32, bad func(uint32))
	}{
		{"exp", expRanges, ReduceExp, refReduceExp, func(lo, hi uint32, bad func(uint32)) {
			for b := lo; b < hi; b++ {
				x := float64(math.Float32frombits(b))
				r1, k1 := ReduceExp(x)
				if r2, k2 := refReduceExp(x); !same(r1, k1, r2, k2) {
					bad(b)
				}
			}
		}},
		{"exp2", expRanges, ReduceExp2, refReduceExp2, func(lo, hi uint32, bad func(uint32)) {
			for b := lo; b < hi; b++ {
				x := float64(math.Float32frombits(b))
				r1, k1 := ReduceExp2(x)
				if r2, k2 := refReduceExp2(x); !same(r1, k1, r2, k2) {
					bad(b)
				}
			}
		}},
		{"exp10", expRanges, ReduceExp10, refReduceExp10, func(lo, hi uint32, bad func(uint32)) {
			for b := lo; b < hi; b++ {
				x := float64(math.Float32frombits(b))
				r1, k1 := ReduceExp10(x)
				if r2, k2 := refReduceExp10(x); !same(r1, k1, r2, k2) {
					bad(b)
				}
			}
		}},
		{"log", logRanges, ReduceLog, refReduceLog, func(lo, hi uint32, bad func(uint32)) {
			for b := lo; b < hi; b++ {
				x := float64(math.Float32frombits(b))
				r1, k1 := ReduceLog(x)
				if r2, k2 := refReduceLog(x); !same(r1, k1, r2, k2) {
					bad(b)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, b := range sweepFloat32(tc.ranges, tc.scan) {
				x := float64(math.Float32frombits(b))
				r1, k1 := tc.got(x)
				r2, k2 := tc.want(x)
				t.Errorf("%s(%#08x = %g): got (%x, %+v), reference (%x, %+v)", tc.name, b, x, r1, k1, r2, k2)
			}
		})
	}
}

// TestRoundHalfAwayTies pins the tie fix-up on exact halves of both signs
// and both parities, where the shifter alone would round to even.
func TestRoundHalfAwayTies(t *testing.T) {
	for _, y := range []float64{
		0.5, 1.5, 2.5, 3.5, -0.5, -1.5, -2.5, -3.5, 0.49999999999999994, -0.49999999999999994,
		1<<50 + 0.5, -(1<<50 + 0.5), 0x1.fffffffffffffp50, 1e-300, -1e-300, 0.75, -0.75, 9599.5, -9600.5,
	} {
		got, want := roundHalfAway(y), math.Round(y)
		if got != want {
			t.Errorf("roundHalfAway(%v) = %v, math.Round = %v", y, got, want)
		}
	}
}
