package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rlibm/internal/fp"
	"rlibm/internal/libm"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"
	"rlibm/perfbench/measure"
	"rlibm/pkg/rlibm"
)

// The libm phase: closed-loop, single-goroutine calls into pkg/rlibm, and in
// traced runs into the layers under it (the generated kernels, range
// reduction and polynomial evaluation), each timed from outside.

const (
	sweepLen  = 4096    // elements per scalar chain pass and per batch array
	fanOutLen = 1 << 20 // elements per fan-out batch (above the 2^15 threshold)
	// batchReps is how many EvalBatch calls over one array a timed batch
	// sample makes: a bf16 call takes only ~20us, too short to time alone.
	batchReps = 8
	// oracleSample is how many polynomial-path elements of each batch array
	// are checked against the Ziv oracle, outside the timed region.
	oracleSample = 32
)

// allBackends are the batch backends a traced run times one by one:
// BackendAuto, what callers get by default, then each concrete backend this
// machine can construct. A backend the machine lacks (BackendAsm off amd64
// or without AVX) has no rows in the report; the run notes say so.
var allBackends = availableBackends()

func availableBackends() []rlibm.Backend {
	var bs []rlibm.Backend
	for b := rlibm.BackendAuto; b < rlibm.NumBackends; b++ {
		if b.Available() {
			bs = append(bs, b)
		}
	}
	return bs
}

// skippedBackends names the concrete backends this machine cannot
// construct.
func skippedBackends() []string {
	var out []string
	for b := rlibm.BackendAuto; b < rlibm.NumBackends; b++ {
		if !b.Available() {
			out = append(out, b.String())
		}
	}
	return out
}

// zeroMask is never assigned. OR-ing the previous result's bits masked by it
// into the next input leaves every input unchanged but makes each call wait
// for the one before, so a pass measures latency rather than throughput,
// like the serialized loop of the paper.
var zeroMask uint32

var zeroMask64 uint64

// sink keeps the compiler from dropping timed calls whose results are
// otherwise unused.
var sink float32

func chainEval(e *rlibm.Evaluator, xs []float32) float32 {
	var prev float32
	for _, x := range xs {
		prev = e.Eval(math.Float32frombits(math.Float32bits(x) | math.Float32bits(prev)&zeroMask))
	}
	return prev
}

func chainKernel(k func(float64) float64, xs []float64) float64 {
	var prev float64
	for _, x := range xs {
		prev = k(math.Float64frombits(math.Float64bits(x) | math.Float64bits(prev)&zeroMask64))
	}
	return prev
}

type libmState struct {
	sweep   [rlibm.NumFuncs][]float32
	sweep64 [rlibm.NumFuncs][]float64
	edges64 [rlibm.NumFuncs][]float64
	arrays  [rlibm.NumFuncs][rlibm.NumPrecisions][]float32
	fanOut  [rlibm.NumFuncs][]float32
	// evals[f][s][p][b] is the Evaluator for one combination; b indexes
	// allBackends.
	evals [rlibm.NumFuncs][rlibm.NumSchemes][rlibm.NumPrecisions][rlibm.NumBackends]*rlibm.Evaluator
	dst   []float32
	// log2Coeffs are the shipped log2 polynomial coefficients the poly
	// layer is timed with; log2Reduced are reduced log2 arguments.
	log2Coeffs  []float64
	log2Adapted [6]float64
	log2Reduced []float64
}

// newLibm builds every input array from rng, constructs an Evaluator for
// every function, scheme, precision and backend, and runs each batch kernel
// once so the lazily built bfloat16 memo tables exist before timing.
func newLibm(rng *rand.Rand, traced bool) (*libmState, error) {
	st := &libmState{dst: make([]float32, fanOutLen)}
	for _, f := range rlibm.Funcs {
		st.sweep[f] = make([]float32, sweepLen)
		st.sweep64[f] = make([]float64, sweepLen)
		st.edges64[f] = make([]float64, sweepLen)
		for i := range st.sweep[f] {
			st.sweep[f][i] = polyInput(f, rng)
			st.sweep64[f][i] = float64(st.sweep[f][i])
			st.edges64[f][i] = float64(edgeInput(f, rng))
		}
		for _, p := range rlibm.Precisions {
			st.arrays[f][p] = batchArray(f, p, sweepLen, rng)
		}
		if traced {
			st.fanOut[f] = batchArray(f, rlibm.PrecFloat32, fanOutLen, rng)
		}
		for _, s := range rlibm.Schemes {
			for _, p := range rlibm.Precisions {
				for bi, b := range allBackends {
					e, err := rlibm.New(f, s, rlibm.WithPrecision(p), rlibm.WithBackend(b))
					if err != nil {
						return nil, fmt.Errorf("libm setup: %w", err)
					}
					e.EvalBatch(st.dst[:sweepLen], st.arrays[f][p])
					st.evals[f][s][p][bi] = e
				}
			}
		}
	}
	if traced {
		c, err := shippedLog2Coeffs()
		if err != nil {
			return nil, err
		}
		if len(c) != 6 {
			return nil, fmt.Errorf("shipped log2 polynomial has degree %d, the poly layer is timed at degree 5", len(c)-1)
		}
		var u [6]float64
		copy(u[:], c)
		a, err := poly.Adapt5(u)
		if err != nil {
			return nil, fmt.Errorf("adapting the shipped log2 polynomial: %w", err)
		}
		st.log2Coeffs, st.log2Adapted = c, a
		for _, x := range st.sweep64[rlibm.FuncLog2] {
			r, _ := rangered.ReduceLog(x)
			st.log2Reduced = append(st.log2Reduced, r)
		}
	}
	return st, nil
}

// shippedLog2Coeffs reads the log2 polynomial the library ships (the first
// piece of its Horner implementation) from the generated data file, so the
// poly layer is timed on the coefficients the kernels use today.
func shippedLog2Coeffs() ([]float64, error) {
	const path = "internal/libm/zz_generated_data.go"
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading shipped coefficients: %w", err)
	}
	text := string(src)
	i := strings.Index(text, "var log2Data = funcData{")
	if i < 0 {
		return nil, fmt.Errorf("%s: no log2Data", path)
	}
	m := regexp.MustCompile(`coeffs: \[\]float64\{([^}]*)\}`).FindStringSubmatch(text[i:])
	if m == nil {
		return nil, fmt.Errorf("%s: no log2 coefficients", path)
	}
	var out []float64
	for _, lit := range strings.Split(m[1], ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(lit), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: log2 coefficient %q: %w", path, lit, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// check compares every backend and precision of every batch kernel with
// scalar Eval, bit for bit, on the workload arrays, and a fixed sample of
// polynomial-path elements with the Ziv oracle. It runs outside the timed
// region. A batch/scalar difference fails the run's output check; an oracle
// difference is a wrong result and counts as failed.
func (st *libmState) check(res *result) {
	for _, f := range rlibm.Funcs {
		ofn, err := oracle.ParseFunc(f.String())
		if err != nil {
			res.gate(err.Error())
			return
		}
		for _, s := range rlibm.Schemes {
			for _, p := range rlibm.Precisions {
				xs := st.arrays[f][p]
				scalar := st.evals[f][s][p][0]
				for _, e := range st.evals[f][s][p][:len(allBackends)] {
					dst := st.dst[:len(xs)]
					e.EvalBatch(dst, xs)
					for i, x := range xs {
						res.attempted++
						if want := scalar.Eval(x); math.Float32bits(dst[i]) != math.Float32bits(want) {
							res.failed++
							res.gate(fmt.Sprintf("%v/%v/%v backend %v: batch(%g) = %g, scalar %g",
								f, s, p, e.Backend(), x, dst[i], want))
						}
					}
				}
				if s != rlibm.EstrinFMA {
					continue
				}
				format := fp.Format{Bits: p.Bits(), ExpBits: 8}
				n := 0
				for _, x := range xs {
					if n == oracleSample {
						break
					}
					if isEdge(f, x) {
						continue
					}
					n++
					res.attempted++
					got := float64(scalar.Eval(x))
					if want := oracle.Correct(ofn, float64(x), format, fp.RNE); math.Float64bits(got) != math.Float64bits(want) {
						res.failed++
						res.note(fmt.Sprintf("wrong result: %v/%v(%g) = %g, oracle %g", f, p, x, got, want))
					}
				}
			}
		}
	}
}

// samples gathers per-pass timings by item name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) median(name string) float64 { return measure.Median(s[name]) }

var schemeKey = [rlibm.NumSchemes]string{"horner", "knuth", "estrin", "estrin_fma"}

// timed runs fn as one span named name under parent and returns the time
// per element in nanoseconds.
func timed(tr *measure.Tracer, name string, parent measure.SpanID, n int, fn func()) float64 {
	tm := tr.Begin(name, parent)
	fn()
	return float64(tm.End().Nanoseconds()) / float64(n)
}

// minRounds is the fewest rounds a libm measurement takes, and how many
// rounds time the fan-out batch.
const minRounds = 5

// rounds times rounds of every measured pass into sm until budget has
// passed (at least minRounds rounds), interleaving the items within each
// round so drift and scheduler noise hit them alike. Calling it several
// times spreads one measurement over a run.
func (st *libmState) rounds(tr *measure.Tracer, parent measure.SpanID, budget time.Duration, sm samples) {
	traced := tr.On()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		rt := tr.Begin("libm.round", parent)
		id := rt.ID()
		for _, f := range rlibm.Funcs {
			for _, s := range []rlibm.Scheme{rlibm.Horner, rlibm.EstrinFMA} {
				e := st.evals[f][s][rlibm.PrecFloat32][0]
				sm.add(fmt.Sprintf("eval.%v.%s", f, schemeKey[s]), timed(tr, "rlibm.Eval", id, sweepLen, func() {
					sink += chainEval(e, st.sweep[f])
				}))
			}
			if traced {
				st.layerRound(tr, id, f, sm, len(sm[fmt.Sprintf("fanout.%v", f)]) < minRounds)
			}
		}
		if traced {
			st.polyRound(tr, id, sm)
		}
		rt.End()
	}
}

// report turns the per-item medians of sm into the libm metrics; traced
// adds the per-layer ones.
func (st *libmState) report(sm samples, traced bool, res *result) {
	perFunc := func(format string) []float64 {
		var out []float64
		for _, f := range rlibm.Funcs {
			out = append(out, sm.median(fmt.Sprintf(format, f)))
		}
		return out
	}
	res.e2e["call_ns"] = measure.GeoMean(perFunc("eval.%v.estrin_fma"))
	res.e2e["horner_call_ns"] = measure.GeoMean(perFunc("eval.%v.horner"))
	if !traced {
		return
	}
	if skipped := skippedBackends(); len(skipped) > 0 {
		res.note(fmt.Sprintf("batch backends not available on this machine, left out: %s", strings.Join(skipped, ", ")))
	}

	var dispatch []float64
	for _, f := range rlibm.Funcs {
		for si := range rlibm.Schemes {
			res.layer[fmt.Sprintf("libm.%v.%s.call_ns", f, schemeKey[si])] = sm.median(fmt.Sprintf("kernel.%v.%s", f, schemeKey[si]))
		}
		dispatch = append(dispatch, sm.median(fmt.Sprintf("eval.%v.estrin_fma", f))-sm.median(fmt.Sprintf("kernel.%v.estrin_fma", f)))
		res.layer[fmt.Sprintf("rangered.%v.reduce_comp_ns", f)] = sm.median(fmt.Sprintf("rangered.%v", f))
		res.layer[fmt.Sprintf("rlibm.batch.%v.ns_per_elem", f)] = sm.median(fmt.Sprintf("batch.auto.float32.%v", f))
	}
	res.layer["libm.edge_call_ns"] = measure.GeoMean(perFunc("edge.%v"))
	res.layer["rlibm.dispatch_ns"] = measure.Median(dispatch)
	res.layer["rlibm.fanout.ns_per_elem"] = measure.GeoMean(perFunc("fanout.%v"))
	for _, b := range allBackends {
		for _, p := range rlibm.Precisions {
			res.layer[fmt.Sprintf("rlibm.batch.%v.%v.ns_per_elem", b, p)] =
				measure.GeoMean(perFunc(fmt.Sprintf("batch.%v.%v.%%v", b, p)))
		}
	}
	for si := range rlibm.Schemes {
		res.layer[fmt.Sprintf("poly.%s.ns", schemeKey[si])] = sm.median("poly." + schemeKey[si])
	}
	// Table 2 of the paper: each scheme's speed-up over Horner, averaged
	// over the six functions, from the kernel rows above.
	for si := 1; si < rlibm.NumSchemes; si++ {
		var sum float64
		for _, f := range rlibm.Funcs {
			h := res.layer[fmt.Sprintf("libm.%v.horner.call_ns", f)]
			sum += (h/res.layer[fmt.Sprintf("libm.%v.%s.call_ns", f, schemeKey[si])] - 1) * 100
		}
		res.layer[fmt.Sprintf("table2.%s_pct", schemeKey[si])] = sum / rlibm.NumFuncs
	}
	res.layer["rlibm.allocs_per_batch"] = st.allocsPerBatch()
}

// layerRound times, for one function, the layers under the Evaluator: the
// four generated kernels called directly, the kernel on edge inputs, the
// range reduction with its output compensation, every backend at each
// precision, and, when fanOut is set, a fan-out-sized batch (a few rounds of
// those suffice, and each costs as much as the rest of a round).
func (st *libmState) layerRound(tr *measure.Tracer, parent measure.SpanID, f rlibm.Func, sm samples, fanOut bool) {
	for si, s := range rlibm.Schemes {
		k := libm.GeneratedFuncs[f.String()+"/"+s.String()]
		sm.add(fmt.Sprintf("kernel.%v.%s", f, schemeKey[si]), timed(tr, "libm.kernel", parent, sweepLen, func() {
			sink += float32(chainKernel(k, st.sweep64[f]))
		}))
	}
	k := libm.GeneratedFuncs[f.String()+"/"+rlibm.EstrinFMA.String()]
	sm.add(fmt.Sprintf("edge.%v", f), timed(tr, "libm.kernel.edge", parent, sweepLen, func() {
		sink += float32(chainKernel(k, st.edges64[f]))
	}))
	red := reduceCompensate[f]
	sm.add(fmt.Sprintf("rangered.%v", f), timed(tr, "rangered", parent, sweepLen, func() {
		sink += float32(chainKernel(red, st.sweep64[f]))
	}))
	for bi, b := range allBackends {
		for _, p := range rlibm.Precisions {
			e := st.evals[f][rlibm.EstrinFMA][p][bi]
			xs := st.arrays[f][p]
			sm.add(fmt.Sprintf("batch.%v.%v.%v", b, p, f), timed(tr, "rlibm.EvalBatch", parent, batchReps*sweepLen, func() {
				for i := 0; i < batchReps; i++ {
					e.EvalBatch(st.dst[:sweepLen], xs)
				}
			}))
		}
	}
	if fanOut {
		e := st.evals[f][rlibm.EstrinFMA][rlibm.PrecFloat32][0]
		sm.add(fmt.Sprintf("fanout.%v", f), timed(tr, "rlibm.EvalBatch.fanout", parent, fanOutLen, func() {
			e.EvalBatch(st.dst, st.fanOut[f])
		}))
	}
}

// reduceCompensate chains each function's range reduction straight into
// its output compensation, skipping the polynomial, so the pair's latency
// can be read on its own.
var reduceCompensate = [rlibm.NumFuncs]func(float64) float64{
	rlibm.FuncExp:   func(x float64) float64 { r, k := rangered.ReduceExp(x); return rangered.CompensateExpFamily(1+r, k) },
	rlibm.FuncExp2:  func(x float64) float64 { r, k := rangered.ReduceExp2(x); return rangered.CompensateExpFamily(1+r, k) },
	rlibm.FuncExp10: func(x float64) float64 { r, k := rangered.ReduceExp10(x); return rangered.CompensateExpFamily(1+r, k) },
	rlibm.FuncLog:   func(x float64) float64 { r, k := rangered.ReduceLog(x); return rangered.CompensateLn(r, k) },
	rlibm.FuncLog2:  func(x float64) float64 { r, k := rangered.ReduceLog(x); return rangered.CompensateLog2(r, k) },
	rlibm.FuncLog10: func(x float64) float64 { r, k := rangered.ReduceLog(x); return rangered.CompensateLog10(r, k) },
}

// polyRound times the four evaluation schemes of internal/poly on the
// shipped log2 polynomial over reduced log2 arguments.
func (st *libmState) polyRound(tr *measure.Tracer, parent measure.SpanID, sm samples) {
	c, a := st.log2Coeffs, &st.log2Adapted
	evals := [rlibm.NumSchemes]func(float64) float64{
		func(r float64) float64 { return poly.EvalHorner(c, r) },
		func(r float64) float64 { return poly.EvalAdapted5(a, r) },
		func(r float64) float64 { return poly.EvalEstrin(c, r) },
		func(r float64) float64 { return poly.EvalEstrinFMA(c, r) },
	}
	for si, ev := range evals {
		sm.add("poly."+schemeKey[si], timed(tr, "poly.eval", parent, len(st.log2Reduced), func() {
			sink += float32(chainKernel(ev, st.log2Reduced))
		}))
	}
}

// allocsPerBatch counts heap allocations per sub-threshold EvalBatch call
// across every function, precision and backend; the batch path promises
// none.
func (st *libmState) allocsPerBatch() float64 {
	var before, after runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&before)
	for _, f := range rlibm.Funcs {
		for _, p := range rlibm.Precisions {
			for _, e := range st.evals[f][rlibm.EstrinFMA][p][:len(allBackends)] {
				for i := 0; i < 16; i++ {
					e.EvalBatch(st.dst[:sweepLen], st.arrays[f][p])
					calls++
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}
