package rangered

import (
	"math"

	"rlibm/internal/oracle"
)

// Key identifies the output-compensation context produced by a range
// reduction: the binade shift and table index for the exponential family, or
// the exponent and table index for the logarithm family.
type Key struct {
	Q int32 // 2^q scaling (exp family) or input exponent e (log family)
	J int32 // table index
}

// roundShift is 1.5*2^52: adding and subtracting it rounds a double of
// magnitude below 2^51 to an integer under the ambient round-to-nearest-even
// mode, because the sum's unit in the last place is exactly 1.
const roundShift = 0x1.8p52

// roundHalfAway returns y rounded to the nearest integer with ties away
// from zero, exactly as math.Round, for |y| < 2^51. The shifter rounds ties
// to even; y - n is exact (both are multiples of y's ulp, |y - n| <= 1/2),
// so a tie the shifter resolved toward zero shows as d == ±1/2 with the
// sign of y and is pushed one step outward. Unlike math.Round this inlines,
// and every exp-family reduction fits the compiler's inlining budget with
// it — by a few units only: even naming r in the reductions below pushes
// them over (CI checks that they inline).
func roundHalfAway(y float64) float64 {
	// Pin y's rounding: a target that fuses multiply-adds could otherwise
	// fold the caller's product into the shifter add or the tie test.
	y = float64(y)
	n := (y + roundShift) - roundShift
	if d := y - n; d == 0.5 && y > 0 {
		n++
	} else if d == -0.5 && y < 0 {
		n--
	}
	return n
}

// ReduceExp2 reduces x for 2^x: n = round(64x), r = x - n/64 (exact in
// double), 2^x = 2^q * T[j] * 2^r with n = 64q + j.
func ReduceExp2(x float64) (float64, Key) {
	n := roundHalfAway(x * 64)
	ni := int32(n)
	return x - n/64, Key{Q: ni >> 6, J: ni & 63}
}

// ReduceExp reduces x for e^x with a Cody–Waite subtraction:
// n = round(x*64/ln2), r = (x - n*hi) - n*lo, e^x = 2^q * T[j] * e^r.
func ReduceExp(x float64) (float64, Key) {
	n := roundHalfAway(x * InvLn2x64)
	ni := int32(n)
	return (x - n*Ln2x64Hi) - n*Ln2x64Lo, Key{Q: ni >> 6, J: ni & 63}
}

// ReduceExp10 reduces x for 10^x: n = round(x*64/log10(2)),
// r = (x - n*hi) - n*lo, 10^x = 2^q * T[j] * 10^r.
func ReduceExp10(x float64) (float64, Key) {
	n := roundHalfAway(x * InvLog10Of2x64)
	ni := int32(n)
	return (x - n*Log10Of2x64Hi) - n*Log10Of2x64Lo, Key{Q: ni >> 6, J: ni & 63}
}

// CompensateExpFamily computes p * T[j] * 2^q with a single rounding: the
// scale T[j]*2^q is built exactly by exponent-field arithmetic (T[j] is in
// [1,2) and q stays far from the double exponent limits for every supported
// input domain).
func CompensateExpFamily(p float64, k Key) float64 {
	return p * expScale(k)
}

func expScale(k Key) float64 {
	return math.Float64frombits(exp2TBits[k.J] + uint64(int64(k.Q))<<52)
}

// ReduceLog reduces a positive finite normal-double x for the logarithm
// family: x = 2^e * m with m in [1,2), F = 1 + j/128 from m's top seven
// fraction bits, f = (m - F) * (1/F) with the correctly rounded reciprocal
// table. The same reduced input serves ln, log2 and log10; they differ in
// output compensation.
func ReduceLog(x float64) (float64, Key) {
	bits := math.Float64bits(x)
	e := int32(bits>>52) - 1023
	j := int32(bits>>45) & 127
	m := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	// F = 1 + j/128 is m truncated to its top seven fraction bits, built
	// from the same bits instead of an int-to-float conversion and divide.
	F := math.Float64frombits(bits&0x000FE00000000000 | 0x3FF0000000000000)
	f := (m - F) * RecipT[j]
	return f, Key{Q: e, J: j}
}

// CompensateLn computes ln x = e*ln2 + (L[j] + p) with one fused operation.
func CompensateLn(p float64, k Key) float64 {
	return math.FMA(float64(k.Q), Ln2, LnT[k.J]+p)
}

// CompensateLog2 computes log2 x = (e + L2[j]) + p; e + L2[j] is exact for
// j = 0 and rounds once otherwise.
func CompensateLog2(p float64, k Key) float64 {
	return (float64(k.Q) + Log2T[k.J]) + p
}

// CompensateLog10 computes log10 x = e*log10(2) + (L10[j] + p).
func CompensateLog10(p float64, k Key) float64 {
	return math.FMA(float64(k.Q), Log10Of2, Log10T[k.J]+p)
}

// Reduction bundles the reduce / compensate / approximate-inverse functions
// of one elementary function for the generator.
type Reduction struct {
	Fn         oracle.Func
	Reduce     func(x float64) (float64, Key)
	Compensate func(p float64, k Key) float64
	// InvApprox estimates the p with Compensate(p, k) ~= v; the exact
	// bounds are recovered by ReducedInterval's monotone search.
	InvApprox func(v float64, k Key) float64
	// PZero is the exact polynomial value at a zero reduced input: 1 for
	// the exponential family (2^0), 0 for the logarithms (log(1)). Inputs
	// that reduce to exactly zero are served by Compensate(PZero, key)
	// structurally — the table entry already carries the correctly rounded
	// information — instead of burdening the polynomial with singleton
	// constraints that coefficient adaptation cannot hit bit-exactly.
	PZero float64
	// PExact generalizes PZero: it reports reduced inputs whose polynomial
	// value is structurally exact (r = 0 everywhere; additionally r = 1/2
	// for the trigonometric reductions). When nil, only r == 0 with value
	// PZero is structural.
	PExact func(r float64) (float64, bool)
	// Decreasing reports whether the output compensation is monotone
	// non-increasing in p for the given key (the negative quadrants of the
	// trigonometric reductions). nil means always increasing.
	Decreasing func(k Key) bool
}

// ExactPoint reports the structural polynomial value at reduced input r, if
// any.
func (red *Reduction) ExactPoint(r float64) (float64, bool) {
	if red.PExact != nil {
		return red.PExact(r)
	}
	if r == 0 {
		return red.PZero, true
	}
	return 0, false
}

// For returns the Reduction for the given elementary function.
func For(fn oracle.Func) Reduction {
	switch fn {
	case oracle.Exp:
		return Reduction{
			Fn:         fn,
			PZero:      1,
			Reduce:     ReduceExp,
			Compensate: CompensateExpFamily,
			InvApprox:  func(v float64, k Key) float64 { return v / expScale(k) },
		}
	case oracle.Exp2:
		return Reduction{
			Fn:         fn,
			PZero:      1,
			Reduce:     ReduceExp2,
			Compensate: CompensateExpFamily,
			InvApprox:  func(v float64, k Key) float64 { return v / expScale(k) },
		}
	case oracle.Exp10:
		return Reduction{
			Fn:         fn,
			PZero:      1,
			Reduce:     ReduceExp10,
			Compensate: CompensateExpFamily,
			InvApprox:  func(v float64, k Key) float64 { return v / expScale(k) },
		}
	case oracle.Log:
		return Reduction{
			Fn:         fn,
			Reduce:     ReduceLog,
			Compensate: CompensateLn,
			InvApprox:  func(v float64, k Key) float64 { return v - float64(k.Q)*Ln2 - LnT[k.J] },
		}
	case oracle.Log2:
		return Reduction{
			Fn:         fn,
			Reduce:     ReduceLog,
			Compensate: CompensateLog2,
			InvApprox:  func(v float64, k Key) float64 { return v - float64(k.Q) - Log2T[k.J] },
		}
	case oracle.Log10:
		return Reduction{
			Fn:         fn,
			Reduce:     ReduceLog,
			Compensate: CompensateLog10,
			InvApprox:  func(v float64, k Key) float64 { return v - float64(k.Q)*Log10Of2 - Log10T[k.J] },
		}
	case oracle.Sinpi, oracle.Cospi:
		return forTrig(fn)
	}
	panic("rangered: unknown function")
}
