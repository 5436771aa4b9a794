package libm

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Vector block kernels. The scalar-body block kernels (emitKernel's Block
// form) inline the kernel into a loop, but every element still passes the
// front gate, the exact-value probe and the r == 0 early return — branches
// that keep the compiler from overlapping elements. The vector form
// restructures the same computation into fixed-size lane groups with the
// branches hoisted or bit-masked away:
//
//   - struct-of-arrays range reduction: a first loop reduces all lanes of
//     the group into local arrays (r plus, per family, the exact exp scale
//     or the log compensation key) and accumulates one "slow" flag from the
//     fast-path predicate;
//   - per-lane fix-up: lanes holding a special input (NaN, infinity, zero,
//     plateau, tiny, or an exact-value input, found by the same one-probe
//     table lookup the scalar kernel makes) are marked in loop A,
//     recomputed with the scalar kernel after the polynomial loop, and
//     overwrite whatever the branch-free body computed for them —
//     bit-identity for the hard cases by construction, at a cost only the
//     special lanes themselves pay (the branch-free loops never branch on
//     the marks);
//   - branch-free polynomial loop: the piece comes from the kernel's shared
//     coefficient table by the branch-free bound count every form uses
//     (kernelSpec.genPoly), the r == 0 structural value is
//     folded in with a bit-select mask, and the body is the scheme's
//     math.FMA DAG — no branches at all, so the core pipelines the
//     independent lanes back to back;
//   - prefix kernels append a separate narrowing-pass loop folding the
//     precision's round (the integer fast path of roundTf32/roundBf16) into
//     the lane group, off the polynomial dependency chain. The pass is
//     branch-free where it matters: the add-and-mask rounding runs
//     unconditionally, and a lane whose value needs the slow rounding path
//     (non-normal, or a carry to 2^128) is marked for the scalar fix-up
//     instead of calling fp.Format.Round inside the loop — keeping the loop
//     body call-free so the compiler holds the lanes in registers.
//
// Results are bit-identical to the scalar kernel for every input: fast
// lanes run the same reduce, the same operation DAG over the same
// coefficients and the same compensation; slow lanes take the scalar kernel
// verbatim, and the sub-group tail takes the scalar-body block kernel.
// Garbage values the branch-free body computes for slow lanes before the
// fix-up overwrite are harmless: float-to-int conversions of non-finite
// values are well-defined in Go, and every table index is bounded by
// construction (masked reduction keys, piece counts, hash shifts). The
// emitted VecBatch/AsmBatch wrappers stage float32 traffic through these
// blocks exactly like the Batch wrappers do for the scalar-body blocks;
// AsmBatch additionally runs the widen/narrow staging loops as AVX
// conversion instructions where available (see conv_amd64.s).

// emitVecLanes is the lane-group width: wide enough that the out-of-order
// core can overlap the independent per-lane FMA chains, narrow enough that
// the struct-of-arrays staging stays in registers/L1. generatedBatchBlock (256)
// is a multiple, so batch staging blocks split into whole groups.
const emitVecLanes = 8

// emitVecBlockFunc writes the vector block form of a kernel.
func emitVecBlockFunc(w io.Writer, ks *kernelSpec) error {
	isLog := strings.HasPrefix(ks.fn, "log")
	name, fallback := ks.name+"VecBlock", ks.name+"Block"

	fmt.Fprintf(w, "\n// %s applies the same kernel as %s to every element of b\n", name, fallback)
	fmt.Fprintf(w, "// in %d-lane groups: struct-of-arrays range reduction, then a branch-free\n", emitVecLanes)
	fmt.Fprintf(w, "// polynomial loop (a bit-select mask instead of the r == 0 branch). Lanes\n")
	fmt.Fprintf(w, "// holding special inputs are recomputed with the scalar kernel afterwards,\n")
	fmt.Fprintf(w, "// and the sub-group tail runs the scalar-body block kernel, so outputs are\n")
	fmt.Fprintf(w, "// bit-identical to %s for every input and length.\n", fallback)
	fmt.Fprintf(w, "func %s(b []float64) {\n", name)
	fmt.Fprintf(w, "\tn := len(b) &^ (generatedVecLanes - 1)\n")
	fmt.Fprintf(w, "\tfor base := 0; base < n; base += generatedVecLanes {\n")
	fmt.Fprintf(w, "\t\tv := (*[generatedVecLanes]float64)(b[base:])\n")

	// Loop A: struct-of-arrays reduction plus the fast-path predicate.
	fam, err := famFor(ks.fn)
	if err != nil {
		return err
	}
	if isLog {
		fmt.Fprintf(w, "\t\tvar vr, vx [generatedVecLanes]float64\n")
		fmt.Fprintf(w, "\t\tvar vq, vj [generatedVecLanes]int32\n")
	} else {
		fmt.Fprintf(w, "\t\tvar vr, vs, vx [generatedVecLanes]float64\n")
	}
	fmt.Fprintf(w, "\t\tvar sl [generatedVecLanes]bool\n")
	fmt.Fprintf(w, "\t\tslow := false\n")
	fmt.Fprintf(w, "\t\tfor l := 0; l < generatedVecLanes; l++ {\n")
	fmt.Fprintf(w, "\t\t\tx := v[l]\n")
	fmt.Fprintf(w, "\t\t\tvx[l] = x\n")
	fmt.Fprintf(w, "\t\t\tr, k := %s\n", fam.reduceExpr)
	fmt.Fprintf(w, "\t\t\tvr[l] = r\n")
	if isLog {
		fmt.Fprintf(w, "\t\t\tvq[l], vj[l] = k.Q, k.J\n")
		// The polynomial path serves exactly the positive finite reals; the
		// bit test folds NaN, infinities, zeros and negatives into one
		// unsigned comparison pair.
		fmt.Fprintf(w, "\t\t\tif bx := math.Float64bits(x); bx == 0 || bx >= 0x7ff0000000000000 {\n")
		fmt.Fprintf(w, "\t\t\t\tsl[l], slow = true, true\n\t\t\t}\n")
	} else {
		// CompensateExpFamily(1, k) is the exact scale T[j]*2^q (1*s == s
		// bitwise), so the final p*vs[l] below rounds exactly like the
		// scalar kernel's CompensateExpFamily(p, k).
		fmt.Fprintf(w, "\t\t\tvs[l] = rangered.CompensateExpFamily(1, k)\n")
		// The exact polynomial path, not the scalar front-end gate: the
		// gate also turns away the band between the shorter and the longer
		// domain cut, which here would cost a scalar fix-up per lane.
		fd := ks.fd
		fmt.Fprintf(w, "\t\t\tif !(x > %s && x < %s && (x < %s || x > %s)) {\n",
			hexLit(fd.domLo), hexLit(fd.domHi), hexLit(fd.tinyLo), hexLit(fd.tinyHi))
		fmt.Fprintf(w, "\t\t\t\tsl[l], slow = true, true\n\t\t\t}\n")
	}
	if ks.exact != nil {
		fmt.Fprintf(w, "\t\t\tif %s {\n", ks.exact.probe("math.Float64bits(x)"))
		fmt.Fprintf(w, "\t\t\t\tsl[l], slow = true, true\n\t\t\t}\n")
	}
	fmt.Fprintf(w, "\t\t}\n")

	// Loop B: the branch-free polynomial body. Slow lanes compute garbage
	// here (safely: conversions and table indexing are total) and are
	// overwritten by the fix-up loop below.
	fmt.Fprintf(w, "\t\tfor l := 0; l < generatedVecLanes; l++ {\n")
	fmt.Fprintf(w, "\t\t\tr := vr[l]\n")
	lines, result := ks.genPoly("tv_")
	for _, l := range lines {
		fmt.Fprintf(w, "\t\t\t%s\n", l)
	}
	// Fold the r == 0 structural value in with a bit-select: m is 1 for
	// r != 0 (covering -0, unreachable on fast lanes, for good measure) and
	// 0 for r == 0, where the scalar kernel serves Compensate(pZero, k).
	fmt.Fprintf(w, "\t\t\tz := math.Float64bits(r) << 1\n")
	fmt.Fprintf(w, "\t\t\tm := (z | -z) >> 63\n")
	if fam.pZero != 0 {
		fmt.Fprintf(w, "\t\t\tpb := math.Float64bits(%s)&-m | %#x&(m-1)\n",
			result, math.Float64bits(fam.pZero))
	} else {
		fmt.Fprintf(w, "\t\t\tpb := math.Float64bits(%s) & -m\n", result)
	}
	store := "v[l] ="
	if ks.ps != nil {
		store = "res :=" // rounded to v[l] by the narrowing fold below
	}
	if isLog {
		fmt.Fprintf(w, "\t\t\t%s %s(math.Float64frombits(pb), rangered.Key{Q: vq[l], J: vj[l]})\n",
			store, fam.compExpr)
	} else {
		fmt.Fprintf(w, "\t\t\t%s math.Float64frombits(pb) * vs[l]\n", store)
	}

	// The prefix kernels' narrowing pass, folded into the same lane
	// iteration so the compensated value rounds straight out of its
	// register: the integer fast path of roundTf32/roundBf16 (see
	// roundNarrow in prec.go), with every slow condition routed to the
	// scalar fix-up. The single exponent window is one binade tighter than
	// roundNarrow's [897, 1150]: capping at 1149 makes a carry to 2^128
	// unreachable on fast lanes, so the overflow-to-infinity compare
	// disappears from the loop. Lanes outside the window — non-normal
	// values (roundNarrow's slow-path condition) plus the rare top binade —
	// are recomputed by the scalar kernel, whose roundNarrow handles them
	// exactly; fast lanes run the identical add-and-mask, so the fold stays
	// bit-identical while the loop body stays free of calls and of taken
	// branches.
	if ks.ps != nil {
		// The shift matches the precision's roundNarrow call in prec.go.
		shift := 53 - ks.ps.Out.Prec()
		fmt.Fprintf(w, "\t\t\tu := math.Float64bits(res)\n")
		fmt.Fprintf(w, "\t\t\tru := u + (1<<%d - 1) + (u>>%d)&1\n", shift-1, shift)
		fmt.Fprintf(w, "\t\t\tru &^= 1<<%d - 1\n", shift)
		fmt.Fprintf(w, "\t\t\tif (u>>52)&0x7ff-897 > 1149-897 {\n")
		fmt.Fprintf(w, "\t\t\t\tsl[l], slow = true, true\n\t\t\t}\n")
		fmt.Fprintf(w, "\t\t\tv[l] = math.Float64frombits(ru)\n")
	}
	fmt.Fprintf(w, "\t\t}\n")

	// Per-lane fix-up: recompute marked lanes with the scalar kernel. Runs
	// after the rounding pass so a fixed-up lane is exactly the scalar
	// kernel's output with no further transformation.
	fmt.Fprintf(w, "\t\tif slow {\n")
	fmt.Fprintf(w, "\t\t\tfor l := 0; l < generatedVecLanes; l++ {\n")
	fmt.Fprintf(w, "\t\t\t\tif sl[l] {\n")
	fmt.Fprintf(w, "\t\t\t\t\tv[l] = %s(vx[l])\n", ks.name)
	fmt.Fprintf(w, "\t\t\t\t}\n\t\t\t}\n\t\t}\n")

	fmt.Fprintf(w, "\t}\n")
	fmt.Fprintf(w, "\tif n != len(b) {\n\t\t%s(b[n:])\n\t}\n", fallback)
	fmt.Fprintf(w, "}\n")
	return nil
}
