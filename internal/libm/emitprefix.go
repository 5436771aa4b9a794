package libm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"rlibm/internal/fp"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"
)

// Progressive prefix kernels (RLIBM-PROG). For each generated implementation
// and each narrow serving precision, the emitter derives a prefix kernel from
// the same coefficient table: the polynomial truncated to the smallest degree
// whose result still lands in the precision's round-to-odd interval for every
// input of the output format, verified exhaustively at emit time against the
// full kernel.
//
// The verification needs no oracle: the full kernel's double lies in the
// 34-bit round-to-odd interval of the exact result, so its round-to-odd value
// at the precision's target width t (t <= 32) equals the exact one
// (round-to-odd composes across >= 2-bit precision gaps). A truncated
// evaluation t-agreeing with the full kernel therefore lies in the same
// round-to-odd interval as the exact result, and rounding it to the output
// format under any of the five IEEE modes is correct — the RLibm-ALL argument
// applied at 18/21 bits instead of 34.
//
// Because the check is exhaustive over the output format's inputs, the
// emitter can also drop cost from the prefix kernels and prove it safe:
//
//   - special-case table entries whose truncated polynomial value already
//     rounds identically are omitted (most do — the table absorbs 34-bit
//     misrounds far below the 18/21-bit granularity), leaving at most a
//     small residual exact-value table;
//   - when one polynomial piece truncates into a prefix that verifies over
//     the whole reduced domain, the piece selection collapses to that
//     single straight-line body with inlined coefficients.

// prefixPlan is the verified shape of one prefix kernel.
type prefixPlan struct {
	degree int // truncated polynomial degree

	evs []*poly.Evaluator // truncated evaluator per piece
	los []float64         // piece lower bounds, parallel to evs

	specialBits []uint64  // residual special inputs (sorted float64 bits)
	specialVals []float64 // their outputs, pre-rounded to the output format
}

// prefixPlanCache memoizes plans per "func/scheme/prec": the emission tests
// emit twice to prove determinism, and the exhaustive sweeps are the
// expensive part. Plans are deterministic, so caching cannot change output.
var prefixPlanCache sync.Map

// famOps carries the per-family reduction hooks in both runtime and codegen
// form, so the emit-time sweep evaluates exactly what the emitted code will.
type famOps struct {
	reduce     func(float64) (float64, rangered.Key)
	compensate func(float64, rangered.Key) float64
	pZero      float64
	isLog      bool

	reduceExpr, compExpr, pZeroExpr string
}

func famFor(fn string) (famOps, error) {
	switch fn {
	case "exp":
		return famOps{rangered.ReduceExp, rangered.CompensateExpFamily, 1, false,
			"rangered.ReduceExp(x)", "rangered.CompensateExpFamily", "1"}, nil
	case "exp2":
		return famOps{rangered.ReduceExp2, rangered.CompensateExpFamily, 1, false,
			"rangered.ReduceExp2(x)", "rangered.CompensateExpFamily", "1"}, nil
	case "exp10":
		return famOps{rangered.ReduceExp10, rangered.CompensateExpFamily, 1, false,
			"rangered.ReduceExp10(x)", "rangered.CompensateExpFamily", "1"}, nil
	case "log":
		return famOps{rangered.ReduceLog, rangered.CompensateLn, 0, true,
			"rangered.ReduceLog(x)", "rangered.CompensateLn", "0"}, nil
	case "log2":
		return famOps{rangered.ReduceLog, rangered.CompensateLog2, 0, true,
			"rangered.ReduceLog(x)", "rangered.CompensateLog2", "0"}, nil
	case "log10":
		return famOps{rangered.ReduceLog, rangered.CompensateLog10, 0, true,
			"rangered.ReduceLog(x)", "rangered.CompensateLog10", "0"}, nil
	}
	return famOps{}, fmt.Errorf("unknown function %q", fn)
}

func polySchemeOf(s Scheme) poly.Scheme {
	switch s {
	case SchemeHorner:
		return poly.Horner
	case SchemeKnuth:
		return poly.Knuth
	case SchemeEstrin:
		return poly.Estrin
	default:
		return poly.EstrinFMA
	}
}

// evalDouble runs the plan's polynomial path at x — the pre-rounding double
// the emitted kernel computes, minus the outer special switch the caller has
// already filtered.
func (pl *prefixPlan) evalDouble(fam *famOps, x float64) float64 {
	r, k := fam.reduce(x)
	if r == 0 {
		return fam.compensate(fam.pZero, k)
	}
	var i uint
	for _, lo := range pl.los[1:] {
		i += b2u(r >= lo)
	}
	return fam.compensate(pl.evs[i].Eval(r), k)
}

// fullKernelDouble is the full-degree raw-double kernel for fn under s.
func fullKernelDouble(fn string, x float32, s Scheme) float64 {
	for _, f := range Funcs {
		if f.Name == fn {
			return f.Double(x, s)
		}
	}
	panic("libm: unknown function " + fn)
}

// planPrefix derives (and memoizes) the verified prefix plan for one
// implementation and precision.
func planPrefix(fn string, fd *funcData, s Scheme, ps PrecSpec) (*prefixPlan, error) {
	key := fn + "/" + s.String() + "/" + ps.Name
	if v, ok := prefixPlanCache.Load(key); ok {
		return v.(*prefixPlan), nil
	}
	fam, err := famFor(fn)
	if err != nil {
		return nil, err
	}
	impl := &fd.impls[s]

	// The verification grid: every output-format input that reaches the
	// polynomial path. Plateau and IEEE special inputs take the same
	// constant branches in the prefix kernel (with emit-time-rounded
	// constants), so they agree by construction.
	type sample struct {
		x       float64
		fullRTO float64 // full kernel result rounded to the target via RTO
		special bool    // full kernel served it from the special-case table
	}
	var grid []sample
	ps.Out.FiniteValues(func(_ uint64, v float64) bool {
		if v == 0 {
			return true
		}
		if fam.isLog {
			if v < 0 {
				return true
			}
		} else {
			if v <= fd.domLo || v >= fd.domHi {
				return true
			}
			if (v < 0 && v >= fd.tinyLo) || (v > 0 && v <= fd.tinyHi) {
				return true
			}
		}
		full := fullKernelDouble(fn, float32(v), s)
		_, isSpec := impl.special(v)
		grid = append(grid, sample{x: v, fullRTO: ps.Target.Round(full, fp.RTO), special: isSpec})
		return true
	})

	maxDeg := 0
	for _, p := range impl.pieces {
		if d := len(p.coeffs) - 1; d > maxDeg {
			maxDeg = d
		}
	}

	build := func(pieces []pieceData, deg int) (*prefixPlan, error) {
		pl := &prefixPlan{degree: deg}
		for _, p := range pieces {
			n := deg + 1
			if n > len(p.coeffs) {
				n = len(p.coeffs)
			}
			ev, err := poly.NewEvaluator(polySchemeOf(s), poly.Poly(p.coeffs[:n]))
			if err != nil {
				return nil, err
			}
			pl.evs = append(pl.evs, ev)
			pl.los = append(pl.los, p.lo)
		}
		return pl, nil
	}

	// check sweeps the grid: a disagreement at a special-table input becomes
	// a residual special; anywhere else it sinks the candidate.
	check := func(pl *prefixPlan) (ok bool, spec []int) {
		for i := range grid {
			t := pl.evalDouble(&fam, grid[i].x)
			if math.Float64bits(ps.Target.Round(t, fp.RTO)) == math.Float64bits(grid[i].fullRTO) {
				continue
			}
			if grid[i].special {
				spec = append(spec, i)
				continue
			}
			return false, nil
		}
		return true, spec
	}

	var chosen *prefixPlan
	var chosenSpec []int
	for d := 1; d <= maxDeg && chosen == nil; d++ {
		pl, err := build(impl.pieces, d)
		if err != nil {
			continue // Knuth adaptation can be degenerate at a truncation; try deeper
		}
		if ok, sp := check(pl); ok {
			chosen, chosenSpec = pl, sp
		}
	}
	if chosen == nil {
		// Unreachable: at maxDeg the truncation is the full polynomial, which
		// t-agrees with itself at every non-special input.
		return nil, fmt.Errorf("%s: no verifying prefix degree", key)
	}

	// Piece collapse: prefer a single straight-line body when the piece
	// covering r = 0 verifies over the whole reduced domain within one extra
	// degree — it removes the table load and the selection from the hot
	// loop.
	if len(impl.pieces) > 1 {
		j := 0
		for i, p := range impl.pieces {
			if p.lo <= 0 {
				j = i
			}
		}
		limit := chosen.degree + 1
		if limit > maxDeg {
			limit = maxDeg
		}
		for d := 1; d <= limit; d++ {
			pl, err := build(impl.pieces[j:j+1], d)
			if err != nil {
				continue
			}
			pl.los[0] = math.Inf(-1)
			if ok, sp := check(pl); ok {
				chosen, chosenSpec = pl, sp
				break
			}
		}
	}

	sort.Slice(chosenSpec, func(a, b int) bool {
		return math.Float64bits(grid[chosenSpec[a]].x) < math.Float64bits(grid[chosenSpec[b]].x)
	})
	for _, i := range chosenSpec {
		y, _ := impl.special(grid[i].x)
		chosen.specialBits = append(chosen.specialBits, math.Float64bits(grid[i].x))
		chosen.specialVals = append(chosen.specialVals, ps.Out.Round(y, fp.RNE))
	}

	prefixPlanCache.Store(key, chosen)
	return chosen, nil
}

func precIdent(name string) string {
	return strings.ToUpper(name[:1]) + name[1:]
}

func precRoundIdent(name string) string {
	return "round" + precIdent(name)
}

// kernelSpecPrefix builds the spec for a prefix plan: the plan's truncated
// pieces, its residual exact-value inputs with their pre-rounded results,
// and the narrowing round to the precision's output format on every
// computed path.
func kernelSpecPrefix(fn string, fd *funcData, s Scheme, ps PrecSpec, pl *prefixPlan, name string) (*kernelSpec, error) {
	ks := &kernelSpec{
		fn:   fn,
		name: name,
		what: fmt.Sprintf("%s %v %s prefix", fn, s, ps.Name),
		doc: fmt.Sprintf("// %s is the %s %v prefix kernel for %s: a degree-%d prefix of the\n"+
			"// full polynomial, correctly rounded to %v for every %v input.\n",
			name, fn, s, ps.Name, pl.degree, ps.Out, ps.Out),
		fd:  fd,
		evs: pl.evs,
		los: pl.los,
		ps:  &ps,
	}
	return ks, ks.finish(pl.specialBits, pl.specialVals)
}
