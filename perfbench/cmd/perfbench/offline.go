package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rlibm/internal/campaign"
	"rlibm/internal/core"
	"rlibm/internal/fp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
	"rlibm/perfbench/measure"
)

// The offline phase: the maintainer's regenerate-and-verify loop, in
// process, with a cold oracle. It generates log2 and exp with every paper
// scheme, then verifies the served straight-line kernels of all six
// functions at Estrin+FMA with a checkpointing campaign.

const (
	offlineWorkers = 2
	// genSeed fixes the generator's constraint sampling. It is part of the
	// job, not of the workload's inputs, so every run generates the same
	// coefficients and the coefficient hash can be compared across runs.
	genSeed = 1
	// computeSamples is how many inputs per function the standalone oracle
	// timing draws.
	computeSamples = 256
)

// genFuncs are the generated functions: log2, whose generation is bound by
// oracle calls, and exp, whose generation is bound by LP solves.
var genFuncs = []oracle.Func{oracle.Log2, oracle.Exp}

// campaignWidths are the output widths the campaign checks, each under all
// five IEEE rounding modes.
var campaignWidths = []int{10, 16, 19, 24, 27, 32}

// offlineConfig sizes one offline phase.
type offlineConfig struct {
	bits   int    // input format width of the generation
	stride uint64 // float32 bit-pattern step of the campaign over campaign.SmokeRanges
	passes int    // campaign passes; verify_checks_per_s is their median
}

type offlineState struct {
	cfg  offlineConfig
	plan *campaign.Plan
	dir  string // scratch directory for campaign checkpoints
}

// newOffline plans the campaign and creates its checkpoint directory.
func newOffline(cfg offlineConfig, tmp string, seed int64) (*offlineState, error) {
	plan, err := campaign.NewPlan(campaign.Config{
		Funcs:    campaign.AllFuncNames(),
		Schemes:  []string{"rlibm-estrin-fma"},
		Widths:   campaignWidths,
		Lanes:    []campaign.Lane{campaign.LaneFloat32},
		Stride:   cfg.stride,
		Ranges:   campaign.SmokeRanges,
		Seed:     seed,
		UnitSize: campaign.SmokeUnitSize,
		UseFuncs: true,
	})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "offline-")
	if err != nil {
		return nil, err
	}
	return &offlineState{cfg: cfg, plan: plan, dir: dir}, nil
}

func (st *offlineState) close() { os.RemoveAll(st.dir) }

// offlineRun is one offline phase in progress; its steps interleave with
// the other phases' work.
type offlineRun struct {
	st       *offlineState
	tr       *measure.Tracer
	parent   measure.SpanID
	res      *result
	hashFile string

	h         hash.Hash
	gen       time.Duration
	genFailed bool
	rates     []float64
	unitRates []float64
	last      *campaign.Totals
}

// steps cuts the offline phase into steps: one GenerateAll per generated
// function, the coefficient-hash check, the campaign passes, and reporting.
func (st *offlineState) steps(tr *measure.Tracer, parent measure.SpanID, rng *rand.Rand, hashFile string, res *result) []func() error {
	r := &offlineRun{st: st, tr: tr, parent: parent, res: res, hashFile: hashFile, h: sha256.New()}
	var steps []func() error
	for _, fn := range genFuncs {
		steps = append(steps, func() error { return r.generate(fn) })
	}
	steps = append(steps, r.checkHash)
	for i := 0; i < st.cfg.passes; i++ {
		steps = append(steps, r.campaignPass)
	}
	return append(steps, func() error { return r.report(rng) })
}

// generate runs core.GenerateAll over the four paper schemes for fn at the
// configured width, stride 1, from a cold oracle.
func (r *offlineRun) generate(fn oracle.Func) error {
	if r.genFailed {
		return nil
	}
	oracle.ResetLadders()
	zivBefore := zivDepth(fn)
	sp := r.tr.Begin("core.GenerateAll", r.parent)
	rs, err := core.GenerateAll(context.Background(), core.Config{
		Fn:      fn,
		Input:   fp.Format{Bits: r.st.cfg.bits, ExpBits: 8},
		Stride:  1,
		Seed:    genSeed,
		Workers: offlineWorkers,
	}, poly.PaperSchemes)
	r.gen += sp.End()
	r.res.attempted++
	if err != nil {
		r.res.failed++
		r.res.gate(fmt.Sprintf("generating %v: %v", fn, err))
		r.genFailed = true
		return nil
	}
	hashResults(r.h, rs)
	if r.tr.On() {
		genLayers(fn, rs, zivBefore, r.res)
	}
	return nil
}

// checkHash reports the generation time and checks that the coefficients
// hash to what the first run of this build recorded in hashFile, which the
// caller keys by build.
func (r *offlineRun) checkHash() error {
	r.res.layer["core.gen_s"] = r.gen.Seconds()
	if r.genFailed {
		return nil
	}
	sum := hex.EncodeToString(r.h.Sum(nil))
	prev, err := os.ReadFile(r.hashFile)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := os.WriteFile(r.hashFile, []byte(sum+"\n"), 0o644); err != nil {
			return err
		}
	case err != nil:
		return err
	case strings.TrimSpace(string(prev)) != sum:
		r.res.gate(fmt.Sprintf("coefficient hash %s differs from the %s an earlier run recorded in %s",
			sum, strings.TrimSpace(string(prev)), filepath.Base(r.hashFile)))
	}
	r.res.note("offline coefficient hash " + sum)
	return nil
}

// campaignPass runs the campaign once, from a fresh checkpoint and a cold
// oracle. No oracle cache is attached, as rlibm-check runs without
// -cache-dir: every check is answered by a fresh Ziv computation.
func (r *offlineRun) campaignPass() error {
	oracle.ResetLadders()
	ckpt := campaign.CheckpointPathIn(r.st.dir)
	if err := campaign.RemoveCheckpoint(ckpt); err != nil {
		return err
	}
	eng := &campaign.Engine{Plan: r.st.plan, Workers: offlineWorkers, CheckpointPath: ckpt,
		Metrics: obs.NewRegistry()}
	sp := r.tr.Begin("campaign.Run", r.parent)
	tot, err := eng.Run(context.Background())
	wall := sp.End().Seconds()
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	r.res.attempted += tot.Checked
	r.res.failed += tot.Wrong
	r.rates = append(r.rates, float64(tot.Checked)/wall)
	r.unitRates = append(r.unitRates, float64(tot.UnitsDone)/wall)
	r.last = tot
	return nil
}

func (r *offlineRun) report(rng *rand.Rand) error {
	res := r.res
	res.layer["campaign.checks_per_s"] = measure.Median(r.rates)
	for _, c := range r.last.Combos {
		if c.Wrong > 0 {
			res.note(fmt.Sprintf("campaign: %s/%s %d wrong of %d, first %s", c.Fn, c.Scheme, c.Wrong, c.Checked, c.First))
		}
	}
	if r.tr.On() {
		res.layer["campaign.units_per_s"] = measure.Median(r.unitRates)
		res.layer["campaign.checked"] = float64(r.last.Checked)
		res.layer["campaign.wrong"] = float64(r.last.Wrong)
		// With no cache attached nothing is looked up; the ratio is 0 until
		// the campaign gains a cache on its default path.
		res.layer["campaign.cache_hit_ratio"] = 0
		timeOracleCompute(rng, res)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hashResults folds every generated piece's bounds and coefficients into h.
func hashResults(h io.Writer, rs []*core.Result) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range rs {
		fmt.Fprintf(h, "%v/%v/%d;", r.Fn, r.Scheme, len(r.Pieces))
		for _, p := range r.Pieces {
			put(p.Lo)
			for _, c := range p.Coeffs {
				put(c)
			}
		}
	}
}

// zivDepth snapshots the process-wide Ziv escalation-depth histogram of fn.
func zivDepth(fn oracle.Func) obs.HistogramSnapshot {
	return obs.Default().Snapshot().Histograms["oracle/"+fn.String()+"/ziv_depth"]
}

// genLayers records the core, lp and oracle figures of one GenerateAll.
// The schemes share one collection pass and solve concurrently, so
// collect_s is that pass and solve_s the slowest scheme's loop.
func genLayers(fn oracle.Func, rs []*core.Result, zivBefore obs.HistogramSnapshot, res *result) {
	var solve time.Duration
	var iters, solves, warm int
	var pivots int64
	for _, r := range rs {
		solve = max(solve, r.Stats.SolveTime)
		iters += r.Stats.Iterations
		solves += r.Stats.LPSolves
		warm += r.Stats.WarmResolves
		pivots += r.Stats.LPPivots
	}
	s := rs[0].Stats
	k := fn.String()
	res.layer["core."+k+".collect_s"] = s.CollectTime.Seconds()
	res.layer["core."+k+".solve_s"] = solve.Seconds()
	res.layer["core."+k+".constraints"] = float64(s.Constraints)
	res.layer["core."+k+".iterations"] = float64(iters)
	res.layer["lp."+k+".solves"] = float64(solves)
	res.layer["lp."+k+".pivots"] = float64(pivots)
	res.layer["lp."+k+".warm_share"] = ratio(int64(warm), int64(solves))
	res.layer["oracle."+k+".misses"] = float64(s.OracleMisses)
	// The histogram's first bucket holds depths 0 and 1 together, so the
	// share of Rounds that escalated is read as escalations per Round:
	// exact while no Round escalates twice, an upper bound otherwise.
	d := histDelta(zivDepth(fn), zivBefore)
	res.layer["oracle."+k+".escalation_share"] = math.Min(1, ratio(d.Sum, d.Count))
}

// timeOracleCompute times standalone oracle Compute plus a 34-bit round-to-odd
// Round, the oracle's answer to one generation query, over a seeded sample
// of each generated function's inputs, from a cold precision ladder.
func timeOracleCompute(rng *rand.Rand, res *result) {
	for _, fn := range genFuncs {
		oracle.ResetLadders()
		var us []float64
		for i := 0; i < computeSamples; i++ {
			x := float64(float32(math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)))
			if fn == oracle.Exp {
				x = float64(float32(rng.Float64()*160 - 80))
			}
			t := time.Now()
			oracle.Compute(fn, x).Round(fp.FP34, fp.RTO)
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
		res.layer["oracle."+fn.String()+".compute_us"] = measure.Median(us)
	}
}
