// Package libm is the generated correctly rounded math library: the six
// elementary functions of the paper (e^x, 2^x, 10^x, ln x, log2 x, log10 x),
// each in four variants corresponding to the paper's configurations —
// RLibm (Horner), RLibm-Knuth, RLibm-Estrin and RLibm-Estrin+FMA — for 24
// implementations in total, as in the artifact.
//
// Every variant computes a double-precision value lying in the rounding
// interval of the 34-bit round-to-odd result, so one implementation yields
// correctly rounded results for every floating-point format from 10 to 32
// bits (with an 8-bit exponent) under all five IEEE rounding modes: round
// the returned double to the desired format. The float32 convenience
// wrappers do exactly that via the hardware's double->float32 conversion.
//
// The polynomial coefficients and special-case tables are produced by
// cmd/rlibm-gen running this repository's generator (internal/core) and are
// embedded in zz_generated_data.go.
package libm

import (
	"math"

	"rlibm/internal/fp"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"
)

// Scheme selects one of the four generated variants.
type Scheme int

const (
	// SchemeHorner is the RLibm baseline (serial multiply-add chain).
	SchemeHorner Scheme = iota
	// SchemeKnuth uses Knuth's adapted coefficients.
	SchemeKnuth
	// SchemeEstrin uses Estrin's parallel evaluation.
	SchemeEstrin
	// SchemeEstrinFMA combines Estrin's evaluation with fused
	// multiply-adds — the paper's fastest configuration and this package's
	// default.
	SchemeEstrinFMA
	numSchemes
)

// Schemes lists the four variants in the paper's order.
var Schemes = []Scheme{SchemeHorner, SchemeKnuth, SchemeEstrin, SchemeEstrinFMA}

func (s Scheme) String() string {
	switch s {
	case SchemeHorner:
		return "rlibm"
	case SchemeKnuth:
		return "rlibm-knuth"
	case SchemeEstrin:
		return "rlibm-estrin"
	case SchemeEstrinFMA:
		return "rlibm-estrin-fma"
	}
	return "unknown"
}

// pieceData is one polynomial piece: coefficients plus (for the Knuth
// variant) the adapted alpha coefficients, selected by the reduced input.
type pieceData struct {
	lo     float64 // reduced-input lower bound (first piece: -Inf)
	coeffs []float64
	// Knuth-adapted coefficients by degree; exactly one is non-nil for
	// adapted pieces.
	a4 *[5]float64
	a5 *[6]float64
	a6 *[7]float64
}

// implData is one generated variant of one function.
type implData struct {
	scheme      Scheme
	pieces      []pieceData
	specialBits []uint64 // sorted float64 bit patterns of special inputs
	specialVals []float64
}

// funcData carries the per-function constants shared by the four variants.
type funcData struct {
	domLo, domHi         float64 // polynomial path is (domLo, domHi)
	loVal, hiVal         float64 // plateau results beyond the cuts
	tinyLo, tinyHi       float64 // near-zero plateau (exp family only)
	tinyLoVal, tinyHiVal float64
	impls                [numSchemes]implData
}

// evalPoly evaluates the variant's piecewise polynomial at the reduced
// input. The piece is the number of piece bounds r has reached (the bounds
// ascend), the selection every generated kernel makes.
func (d *implData) evalPoly(r float64) float64 {
	var i uint
	for _, p := range d.pieces[1:] {
		i += b2u(r >= p.lo)
	}
	p := &d.pieces[i]
	switch d.scheme {
	case SchemeHorner:
		return poly.EvalHorner(p.coeffs, r)
	case SchemeEstrin:
		return poly.EvalEstrin(p.coeffs, r)
	case SchemeEstrinFMA:
		return poly.EvalEstrinFMA(p.coeffs, r)
	case SchemeKnuth:
		switch {
		case p.a4 != nil:
			return poly.EvalAdapted4(p.a4, r)
		case p.a5 != nil:
			return poly.EvalAdapted5(p.a5, r)
		case p.a6 != nil:
			return poly.EvalAdapted6(p.a6, r)
		default:
			return poly.EvalHorner(p.coeffs, r)
		}
	}
	panic("libm: unknown scheme")
}

// b2u is 1 for true and 0 for false. It inlines and compiles to SETcc, so
// a sum of b2u(r >= lo) terms selects a polynomial piece without a branch;
// the generated kernels call it on every evaluation.
func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// exactEntry is one slot of a generated kernel's exact-value table: the
// float64 bits of an input the kernel answers from the table, and the
// answer.
type exactEntry struct {
	b uint64
	v float64
}

// special looks x up in the variant's special-case table.
func (d *implData) special(x float64) (float64, bool) {
	b := math.Float64bits(x)
	for i, sb := range d.specialBits {
		if sb == b {
			return d.specialVals[i], true
		}
	}
	return 0, false
}

// expFamily64 is the shared double path of e^x, 2^x and 10^x.
func expFamily64(x float64, fd *funcData, s Scheme,
	reduce func(float64) (float64, rangered.Key)) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return math.Inf(1)
	case math.IsInf(x, -1):
		return 0
	case x == 0:
		return 1
	case x <= fd.domLo:
		return fd.loVal
	case x >= fd.domHi:
		return fd.hiVal
	case x < 0 && x >= fd.tinyLo:
		return fd.tinyLoVal
	case x > 0 && x <= fd.tinyHi:
		return fd.tinyHiVal
	}
	d := &fd.impls[s]
	if y, ok := d.special(x); ok {
		return y
	}
	r, k := reduce(x)
	if r == 0 {
		// Exact reduced input: the table entry alone is the correctly
		// rounded information (p = 2^0 = 1).
		return rangered.CompensateExpFamily(1, k)
	}
	return rangered.CompensateExpFamily(d.evalPoly(r), k)
}

// logFamily64 is the shared double path of ln, log2 and log10.
func logFamily64(x float64, fd *funcData, s Scheme,
	compensate func(float64, rangered.Key) float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x < 0 || math.IsInf(x, -1):
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	d := &fd.impls[s]
	if y, ok := d.special(x); ok {
		return y
	}
	f, k := rangered.ReduceLog(x)
	if f == 0 {
		// Exact reduced input: log(F) comes straight from the table
		// (p = log(1) = 0).
		return compensate(0, k)
	}
	return compensate(d.evalPoly(f), k)
}

// RoundTo rounds a raw double result to an arbitrary format and rounding
// mode. Formats from 10 to 32 bits with an 8-bit exponent receive correctly
// rounded results (the RLibm-ALL guarantee).
func RoundTo(d float64, t fp.Format, m fp.Mode) float64 {
	return t.Round(d, m)
}
