package main

import (
	"math"
	"math/rand"

	"rlibm/pkg/rlibm"
)

// Input generation. Every input the benchmark sends is drawn here from a
// seeded source, so a seed fixes every array, payload and schedule.

// polyInput draws x from the function's polynomial domain, the sweep the
// paper times: the exponentials across their finite-result range, the
// logarithms across every normal binade.
func polyInput(f rlibm.Func, rng *rand.Rand) float32 {
	switch f {
	case rlibm.FuncExp:
		return float32(rng.Float64()*176 - 87)
	case rlibm.FuncExp2:
		return float32(rng.Float64()*252 - 126)
	case rlibm.FuncExp10:
		return float32(rng.Float64()*76 - 38)
	}
	return float32(math.Ldexp(1+rng.Float64(), rng.Intn(252)-126))
}

// edgeInput draws one special or plateau input: NaN, infinities, signed
// zeros and subnormals for every function, negative arguments for the
// logarithms, and saturating or tiny arguments for the exponentials.
func edgeInput(f rlibm.Func, rng *rand.Rand) float32 {
	sub := math.Float32frombits(uint32(1 + rng.Intn(0x7fffff)))
	common := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), sub, -sub}
	var extra []float32
	if f >= rlibm.FuncLog {
		extra = []float32{-polyInput(f, rng), -float32(rng.Float64() * 1e30)}
	} else {
		big := float32(200 + rng.Float64()*1e30)
		tiny := float32(math.Ldexp(1+rng.Float64(), -30-rng.Intn(90)))
		extra = []float32{big, -big, tiny, -tiny}
	}
	all := append(common, extra...)
	return all[rng.Intn(len(all))]
}

// edgeShare is the fraction of batch-array elements drawn by edgeInput: one
// in sixteen, enough that the special-case lanes and the scalar fix-up
// path carry measurable work.
const edgeShare = 16

// batchArray fills n inputs for f at precision p: polynomial-domain values
// with a one-in-edgeShare share of edge inputs. bfloat16 arrays hold
// bfloat16-representable values only, as bfloat16 callers send.
func batchArray(f rlibm.Func, p rlibm.Precision, n int, rng *rand.Rand) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		if rng.Intn(edgeShare) == 0 {
			xs[i] = edgeInput(f, rng)
		} else {
			xs[i] = polyInput(f, rng)
		}
		if p == rlibm.PrecBfloat16 {
			xs[i] = toBf16(xs[i])
		}
	}
	return xs
}

// toBf16 rounds x to the nearest bfloat16 value (ties to even), keeping NaN
// a NaN.
func toBf16(x float32) float32 {
	b := math.Float32bits(x)
	if x != x {
		return math.Float32frombits(0x7fc00000)
	}
	b += 0x7fff + (b>>16)&1
	return math.Float32frombits(b &^ 0xffff)
}

// isEdge reports whether x takes a special-case path for f rather than
// the polynomial: the oracle sample skips those, the bit-identity checks
// cover them.
func isEdge(f rlibm.Func, x float32) bool {
	a := math.Abs(float64(x))
	if x != x || math.IsInf(a, 0) || a < 0x1p-126 {
		return true
	}
	if f >= rlibm.FuncLog {
		return x < 0
	}
	return a > 150 || a < 0x1p-25
}
