package libm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rlibm/internal/poly"
	"rlibm/internal/rangered"
)

// TestGeneratedFuncsMatchDataBackend: the straight-line function backend is
// bit-identical to the data-driven backend on every path — special values,
// plateaus, special tables, structural zeros and the polynomial pieces.
func TestGeneratedFuncsMatchDataBackend(t *testing.T) {
	if len(GeneratedFuncs) != 24 {
		t.Fatalf("expected 24 generated functions, have %d", len(GeneratedFuncs))
	}
	rng := rand.New(rand.NewSource(121))
	for key, gen := range GeneratedFuncs {
		name, schemeName, _ := strings.Cut(key, "/")
		var scheme Scheme
		found := false
		for _, s := range Schemes {
			if s.String() == schemeName {
				scheme, found = s, true
				break
			}
		}
		if !found {
			t.Fatalf("unknown scheme in key %q", key)
		}
		var double func(float32, Scheme) float64
		for _, f := range Funcs {
			if f.Name == name {
				double = f.Double
				break
			}
		}
		if double == nil {
			t.Fatalf("unknown function in key %q", key)
		}
		// Edge inputs, both sides of the front-end gate's ends, plus a
		// random sweep.
		inputs := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			1, -1, 0.5, 2, 3, 100, -104, 89, -150, 128, 1e-40, -1e-40,
		}
		inputs = append(inputs, gateEdgeInputs(name, prefixDataOf(t, name))...)
		impl := &prefixDataOf(t, name).impls[scheme]
		inputs = append(inputs, pieceEdgeInputs(t, name, impl)...)
		inputs = append(inputs, exactEdgeInputs(impl)...)
		for i := 0; i < 20000; i++ {
			inputs = append(inputs, float64(randInput(rng, name)))
		}
		for _, raw := range inputs {
			// Both backends must see the same value: the public API takes
			// float32, so quantize the probe first.
			x := float64(float32(raw))
			got := gen(x)
			want := double(float32(x), scheme)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s(%x=%g): straight-line %x, data backend %x",
					key, math.Float64bits(x), x, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// pieceEdgeInputs lists, for every piece bound of a multi-piece
// implementation and every reduction table index j, the two adjacent
// float32 inputs whose reduced r straddles the bound (r < lo <= r'), plus
// one more float32 on each side. Exponentials take j at q = 0 and q = -1;
// logarithms take F = 1 + j/128 in the binade [1, 2), skipping the j whose
// reduced inputs all lie below the bound.
func pieceEdgeInputs(t *testing.T, fn string, impl *implData) []float64 {
	t.Helper()
	fam, err := famFor(fn)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	// straddle walks from the float32 nearest guess to the pair around lo,
	// keeping the reduction key; it reports false if the key's inputs do
	// not reach lo.
	straddle := func(guess, lo float64, key rangered.Key) bool {
		up, down := float32(math.Inf(1)), float32(math.Inf(-1))
		above := func(x float32) (bool, bool) {
			r, k := fam.reduce(float64(x))
			return r >= lo, k == key
		}
		for x, i := float32(guess), 0; i < 1<<12; i++ {
			hi, ok := above(x)
			if !ok {
				return false
			}
			if !hi {
				x = math.Nextafter32(x, up)
				continue
			}
			a := math.Nextafter32(x, down)
			if hiA, ok := above(a); ok && hiA {
				x = a
				continue
			}
			for _, y := range []float32{math.Nextafter32(a, down), a, x, math.Nextafter32(x, up)} {
				out = append(out, float64(y))
			}
			return true
		}
		t.Fatalf("%s: no straddling pair found near %g", fn, guess)
		return false
	}
	for _, p := range impl.pieces[1:] {
		found := 0
		if fam.isLog {
			for j := int32(0); j < 128; j++ {
				f := 1 + float64(j)/128
				if straddle(f*(1+p.lo), p.lo, rangered.Key{Q: 0, J: j}) {
					found++
				}
			}
		} else {
			step := map[string]float64{"exp": math.Ln2, "exp2": 1, "exp10": math.Log10(2)}[fn] / 64
			for _, q := range []int32{0, -1} {
				for j := int32(0); j < 64; j++ {
					if straddle(float64(64*q+j)*step+p.lo, p.lo, rangered.Key{Q: q, J: j}) {
						found++
					}
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s: no table index reaches piece bound %x", fn, p.lo)
		}
	}
	return out
}

// exactEdgeInputs lists every exact-value input of an implementation and
// its float32 neighbours one ulp away on each side.
func exactEdgeInputs(impl *implData) []float64 {
	var out []float64
	for _, b := range impl.specialBits {
		walk(float32(math.Float64frombits(b)), 1, func(x float32) { out = append(out, float64(x)) })
	}
	return out
}

// TestGeneratedBlockFuncsMatchScalar: every block kernel is bit-identical to
// its scalar counterpart on every element, for blocks that mix specials,
// plateau values and ordinary inputs, at several lengths (including empty).
func TestGeneratedBlockFuncsMatchScalar(t *testing.T) {
	if len(GeneratedBlockFuncs) != len(GeneratedFuncs) {
		t.Fatalf("%d block kernels vs %d scalar kernels", len(GeneratedBlockFuncs), len(GeneratedFuncs))
	}
	rng := rand.New(rand.NewSource(212))
	for key, blk := range GeneratedBlockFuncs {
		scalar := GeneratedFuncs[key]
		if scalar == nil {
			t.Fatalf("block kernel %q has no scalar counterpart", key)
		}
		name, _, _ := strings.Cut(key, "/")
		for _, n := range []int{0, 1, 7, 1000} {
			src := make([]float64, n)
			for i := range src {
				switch i % 9 {
				case 7:
					src[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[i%5]
				case 8:
					src[i] = []float64{-150, 128, 1e-40, -1, 1}[i%5]
				default:
					src[i] = float64(randInput(rng, name))
				}
			}
			got := append([]float64(nil), src...)
			blk(got)
			for i, x := range src {
				want := scalar(x)
				if math.Float64bits(got[i]) != math.Float64bits(want) &&
					!(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("%s block(%x=%g) = %x, scalar = %x",
						key, math.Float64bits(x), x, math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	}
}

// TestCheckPiecesNamesKernel: pieces that cannot share one table-driven
// body (here, different degrees) fail emission with an error naming the
// kernel, instead of emitting a body that differs from the pieces'.
func TestCheckPiecesNamesKernel(t *testing.T) {
	var evs []*poly.Evaluator
	for _, c := range [][]float64{{1, 2, 3}, {1, 2, 3, 4}} {
		ev, err := poly.NewEvaluator(poly.EstrinFMA, c)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	ks := &kernelSpec{name: "genTestKernel", evs: evs, los: []float64{math.Inf(-1), 0.5}}
	if err := checkPieces(ks); err == nil || !strings.Contains(err.Error(), "genTestKernel") {
		t.Errorf("checkPieces = %v, want an error naming genTestKernel", err)
	}
}

// TestEmitGeneratedFuncsStable: emitting twice yields identical source (the
// generator is deterministic).
func TestEmitGeneratedFuncsStable(t *testing.T) {
	var a, b strings.Builder
	if err := EmitGeneratedFuncs(&a); err != nil {
		t.Fatal(err)
	}
	if err := EmitGeneratedFuncs(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("EmitGeneratedFuncs is not deterministic")
	}
	if !strings.Contains(a.String(), "func genExp2RlibmEstrinFma(") {
		t.Error("expected generated function names in output")
	}
}
