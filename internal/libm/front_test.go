package libm

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// switchServes mirrors the emitted special switch: it reports whether the
// switch answers x itself instead of passing it on to the polynomial body.
func switchServes(fn string, fd *funcData, x float64) bool {
	if strings.HasPrefix(fn, "log") {
		return math.IsNaN(x) || x < 0 || math.IsInf(x, 0) || x == 0
	}
	return math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || x <= fd.domLo || x >= fd.domHi ||
		(x < 0 && x >= fd.tinyLo) || (x > 0 && x <= fd.tinyHi)
}

// admits reports whether x skips the special switch: the negation of the
// emitted frontGate.coldExpr test.
func (g frontGate) admits(x float64) bool {
	b := math.Float64bits(x)
	if g.abs {
		b &^= 1 << 63
	}
	return b-g.off < g.span
}

// gateEnds returns the smallest and largest float32 magnitude the gate
// admits: float32 to float64 widening preserves order, so the admitted bit
// interval [off, off+span) holds exactly the float32 magnitudes in [a, b].
func gateEnds(g frontGate) (a, b float32) {
	lo, hi := math.Float64frombits(g.off), math.Float64frombits(g.off+g.span)
	if a = float32(lo); float64(a) < lo {
		a = math.Nextafter32(a, float32(math.Inf(1)))
	}
	if b = float32(hi); float64(b) >= hi {
		b = math.Nextafter32(b, float32(math.Inf(-1)))
	}
	return a, b
}

// walk calls f on x and its n float32 neighbours on each side.
func walk(x float32, n int, f func(float32)) {
	f(x)
	up, down := x, x
	for i := 0; i < n; i++ {
		up = math.Nextafter32(up, float32(math.Inf(1)))
		down = math.Nextafter32(down, float32(math.Inf(-1)))
		f(up)
		f(down)
	}
}

// TestFrontGateSound proves, for every function, that no float32 the
// one-compare gate admits is a case of the special switch it skips. The
// admitted set is ±[a, b] (exponentials) or [a, b] (logarithms, whose gate
// compares the signed bits and so admits no negative pattern). On each sign
// the switch serves a set closed downward in |x| (zero, the tiny plateau)
// and one closed upward (the overflow and underflow cuts, infinities), plus
// NaN, which the gate never admits; so if neither end is served, nothing
// between is. The test checks the ends, that they are exact (their outer
// neighbours are rejected), and every float32 near each switch threshold.
func TestFrontGateSound(t *testing.T) {
	for _, fn := range []string{"exp", "exp2", "exp10", "log", "log2", "log10"} {
		fd := prefixDataOf(t, fn)
		g := gateFor(fn, fd)
		if !g.abs && g.off+g.span > 1<<63 {
			t.Fatalf("%s: signed gate reaches negative bit patterns", fn)
		}
		admits := func(x float32) bool { return g.admits(float64(x)) }
		a, b := gateEnds(g)
		if !(a <= b) || !admits(a) || !admits(b) {
			t.Fatalf("%s: gate ends [%g, %g] not admitted", fn, a, b)
		}
		if admits(math.Nextafter32(a, 0)) || admits(math.Nextafter32(b, float32(math.Inf(1)))) {
			t.Fatalf("%s: gate admits beyond [%g, %g]", fn, a, b)
		}
		signs := []float32{1}
		if g.abs {
			signs = append(signs, -1)
		}
		for _, s := range signs {
			for _, x := range []float32{s * a, s * b} {
				if !admits(x) || switchServes(fn, fd, float64(x)) {
					t.Errorf("%s: gate end %g admitted=%v but served by the switch", fn, x, admits(x))
				}
			}
		}
		points := []float32{0, 1, -1, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.MaxFloat32, -math.MaxFloat32, a, -a, b, -b,
			float32(fd.domLo), float32(fd.domHi), float32(fd.tinyLo), float32(fd.tinyHi)}
		for _, p := range points {
			walk(p, 16, func(x float32) {
				if admits(x) && switchServes(fn, fd, float64(x)) {
					t.Errorf("%s: gate admits %g (%#08x), a switch case", fn, x, math.Float32bits(x))
				}
			})
		}
		for _, nb := range []uint32{0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001, 0xFFFFFFFF} {
			if x := math.Float32frombits(nb); admits(x) {
				t.Errorf("%s: gate admits %#08x", fn, nb)
			}
		}
	}
}

// gateEdgeInputs lists the float32 inputs on both sides of fn's gate ends,
// with both signs.
func gateEdgeInputs(fn string, fd *funcData) []float64 {
	a, b := gateEnds(gateFor(fn, fd))
	var out []float64
	for _, p := range []float32{a, b} {
		walk(p, 2, func(x float32) { out = append(out, float64(x), -float64(x)) })
	}
	return out
}

// TestGeneratedFuncsCommitted: the committed zz_generated_funcs.go is
// exactly what EmitGeneratedFuncs produces, so the emitter and the shipped
// kernels cannot drift apart.
func TestGeneratedFuncsCommitted(t *testing.T) {
	var buf bytes.Buffer
	if err := EmitGeneratedFuncs(&buf); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("zz_generated_funcs.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Error("zz_generated_funcs.go differs from EmitGeneratedFuncs output; regenerate with go run ./cmd/rlibm-funcgen")
	}
}
