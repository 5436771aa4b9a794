package poly

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CodeBuf collects generated straight-line code for one polynomial
// evaluation: the code-generation interpretation of the scheme DAG.
//
// Because the same generic interpreters (HornerG, EstrinG, AdaptedNG) drive
// the float64 evaluators, the exact-rational checkers, the cost model and
// this code generator, the emitted source is the same operation DAG the
// generator validated — bit-identical results by construction.
type CodeBuf struct {
	prefix string
	n      int
	lines  []string
}

// NewCodeBuf returns a fresh buffer; temporaries are named prefix0,
// prefix1, ...
func NewCodeBuf(prefix string) *CodeBuf {
	return &CodeBuf{prefix: prefix}
}

// Lines returns the emitted statements, one per operation.
func (cb *CodeBuf) Lines() []string { return cb.lines }

// temp allocates a new temporary bound to the given expression.
func (cb *CodeBuf) temp(expr string) string {
	name := fmt.Sprintf("%s%d", cb.prefix, cb.n)
	cb.n++
	cb.lines = append(cb.lines, fmt.Sprintf("%s := %s", name, expr))
	return name
}

// GoLiteral formats a float64 as an exact Go hexadecimal literal.
func GoLiteral(v float64) string {
	s := strconv.FormatFloat(v, 'x', -1, 64)
	switch s {
	case "+Inf", "-Inf", "NaN":
		// Callers never emit non-finite coefficients; make it loud.
		panic("poly: non-finite coefficient in generated code")
	}
	return s
}

// GenOps returns the code-generating interpretation: every Add/Mul/FMA
// emits one Go statement into the buffer and returns the temporary's name.
func GenOps(cb *CodeBuf) Ops[string] {
	return Ops[string]{
		FromFloat: func(f float64) string { return GoLiteral(f) },
		Add:       func(a, b string) string { return cb.temp(fmt.Sprintf("%s + %s", a, b)) },
		Mul:       func(a, b string) string { return cb.temp(fmt.Sprintf("%s * %s", a, b)) },
		FMA:       func(a, b, c string) string { return cb.temp(fmt.Sprintf("math.FMA(%s, %s, %s)", a, b, c)) },
	}
}

// GenEval emits straight-line Go code computing the evaluator's polynomial
// at the variable named x, returning the statements and the name of the
// result value. The emitted operations replicate Evaluator.Eval exactly.
func (e *Evaluator) GenEval(x, tmpPrefix string) (lines []string, result string) {
	cb := NewCodeBuf(tmpPrefix)
	result = e.genWith(GenOps(cb), x)
	return eliminateDead(cb.Lines(), result), result
}

// EvalCoeffs returns the coefficient array the bound scheme actually reads
// during evaluation: the Knuth-adapted alphas when adaptation is in effect,
// the original ascending coefficients otherwise. Index i in this slice is
// the i the coeff callback of GenEvalCoeffs receives.
func (e *Evaluator) EvalCoeffs() []float64 {
	if a := e.AdaptedCoeffs(); a != nil {
		return a
	}
	return e.Coeffs
}

// GenEvalCoeffs emits the same straight-line operation sequence as GenEval,
// but loads every coefficient through coeff(i) — an expression such as
// "c[3]" — instead of inlining its hexadecimal literal; i indexes
// EvalCoeffs. The kernel emitters use this to share one polynomial
// body across the table-selected pieces of a piecewise kernel: the DAG shape
// depends only on the scheme and the coefficient count, so pieces of equal
// degree compile to identical code over different table rows. Coefficients
// with equal bit patterns resolve to the lowest index (harmless: the rows
// hold the same value there), and a constant the DAG introduces that is not
// a coefficient falls back to its literal.
func (e *Evaluator) GenEvalCoeffs(x, tmpPrefix string, coeff func(i int) string) (lines []string, result string) {
	ec := e.EvalCoeffs()
	byBits := make(map[uint64]int, len(ec))
	for i := len(ec) - 1; i >= 0; i-- {
		byBits[math.Float64bits(ec[i])] = i
	}
	cb := NewCodeBuf(tmpPrefix)
	ops := GenOps(cb)
	ops.FromFloat = func(f float64) string {
		if i, ok := byBits[math.Float64bits(f)]; ok {
			return coeff(i)
		}
		return GoLiteral(f)
	}
	result = e.genWith(ops, x)
	return eliminateDead(cb.Lines(), result), result
}

// genWith runs the scheme's generic DAG interpreter under the given
// string-typed Ops — the shared body of GenEval and GenEvalCoeffs.
func (e *Evaluator) genWith(ops Ops[string], x string) (result string) {
	switch e.Scheme {
	case Horner:
		result = HornerG(ops, e.Coeffs, x, false)
	case HornerFMA:
		result = HornerG(ops, e.Coeffs, x, true)
	case Estrin:
		result = EstrinG(ops, e.Coeffs, x, false)
	case EstrinFMA:
		result = EstrinG(ops, e.Coeffs, x, true)
	case Knuth:
		switch {
		case e.adapted4 != nil:
			result = Adapted4G(ops, e.adapted4, x)
		case e.adapted5 != nil:
			result = Adapted5G(ops, e.adapted5, x)
		case e.adapted6 != nil:
			result = Adapted6G(ops, e.adapted6, x)
		default:
			result = HornerG(ops, e.Coeffs, x, false)
		}
	default:
		panic("poly: unknown scheme")
	}
	return result
}

// eliminateDead removes statements whose temporary is never used by a later
// statement or the result — e.g. the final level of Estrin's recursion
// squares the variable once more than it consumes. Removing an unused pure
// operation cannot change any computed value.
func eliminateDead(lines []string, result string) []string {
	live := map[string]bool{result: true}
	keep := make([]bool, len(lines))
	for i := len(lines) - 1; i >= 0; i-- {
		name, expr, ok := strings.Cut(lines[i], " := ")
		if !ok || live[name] {
			keep[i] = true
			if ok {
				for _, tok := range strings.FieldsFunc(expr, func(r rune) bool {
					return r == ' ' || r == '(' || r == ')' || r == ',' || r == '+' || r == '*'
				}) {
					live[tok] = true
				}
			}
		}
	}
	out := lines[:0]
	for i, l := range lines {
		if keep[i] {
			out = append(out, l)
		}
	}
	return out
}

// GenEvalFunc wraps GenEval into a complete Go function definition.
func (e *Evaluator) GenEvalFunc(name string) string {
	lines, result := e.GenEval("x", "t")
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(x float64) float64 {\n", name)
	for _, l := range lines {
		fmt.Fprintf(&b, "\t%s\n", l)
	}
	fmt.Fprintf(&b, "\treturn %s\n}\n", result)
	return b.String()
}
