package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// TestCanaryVerifiesServedTraffic: every combo serves a small batch with the
// canary sampling every element; after the drain, everything admissible was
// checked against the oracle and nothing mismatched (the kernels are right,
// so a mismatch here is a canary bug).
func TestCanaryVerifiesServedTraffic(t *testing.T) {
	srv, ts, reg := newObsTestServer(t, Config{
		CanarySample: 1,
		CanaryQueue:  1 << 12,
	})
	src := []float32{0.5, 1.5, 2.5, 3.5}
	for _, f := range rlibm.Funcs {
		for _, sch := range rlibm.Schemes {
			if got, resp := binEval(t, ts.URL, f.String(), sch.String(), src); got == nil {
				t.Fatalf("%v/%v: status %d", f, sch, resp.StatusCode)
			}
		}
	}
	srv.Close()
	snap := reg.Snapshot()
	want := int64(len(src) * rlibm.NumFuncs * rlibm.NumSchemes)
	if n := snap.Counter("serve.canary.checked_total"); n != want {
		t.Errorf("checked_total = %d, want %d (every element of every combo)", n, want)
	}
	if n := snap.Counter("serve.canary.mismatch_total"); n != 0 {
		t.Errorf("mismatch_total = %d on correct traffic, want 0", n)
	}
	if n := snap.Counter("serve.canary.dropped_total"); n != 0 {
		t.Errorf("dropped_total = %d with an oversized queue, want 0", n)
	}
	if n := snap.Counter("serve.canary.skipped_total"); n != 0 {
		t.Errorf("skipped_total = %d on all-admissible inputs, want 0", n)
	}
}

// TestCanaryFlagsMismatch: a served result one ulp off the correctly rounded
// value trips mismatch_total. The corruption is injected on the observation,
// not the data path — the canary sees what the handler would have served.
func TestCanaryFlagsMismatch(t *testing.T) {
	srv := New(Config{Registry: obs.NewRegistry(), CanarySample: 1, CanaryQueue: 16})
	c := srv.canary

	src := []float32{0.75}
	good := make([]float32, 1)
	rlibm.EvalBatch(rlibm.FuncExp, rlibm.Horner, good, src)
	c.offer(rlibm.FuncExp, rlibm.PrecFloat32, src, good)

	bad := []float32{math.Float32frombits(math.Float32bits(good[0]) + 1)}
	c.offer(rlibm.FuncExp, rlibm.PrecFloat32, src, bad)

	srv.Close()
	if n := c.checked.Value(); n != 2 {
		t.Errorf("checked_total = %d, want 2", n)
	}
	if n := c.mismatch.Value(); n != 1 {
		t.Errorf("mismatch_total = %d, want exactly the corrupted sample", n)
	}
}

// TestCanaryTinyRate: a sample rate so small that 1/rate overflows int64
// samples nothing; it must not turn into a negative stride, which sent offer
// indexing far outside the request.
func TestCanaryTinyRate(t *testing.T) {
	srv := New(Config{Registry: obs.NewRegistry(), CanarySample: 1e-19, CanaryQueue: 16})
	c := srv.canary
	src := []float32{0.5, 1.5, 2.5, 3.5}
	dst := make([]float32, len(src))
	rlibm.EvalBatch(rlibm.FuncExp, rlibm.Horner, dst, src)
	c.offer(rlibm.FuncExp, rlibm.PrecFloat32, src, dst)
	srv.Close()
	if n := c.checked.Value(); n != 0 {
		t.Errorf("checked_total = %d at rate 1e-19, want 0", n)
	}
}

// TestCanarySkipsInadmissible: inputs the kernels answer from the IEEE
// special-case table are not oracle-checkable and must be counted skipped,
// never verified and never dropped.
func TestCanarySkipsInadmissible(t *testing.T) {
	srv := New(Config{Registry: obs.NewRegistry(), CanarySample: 1, CanaryQueue: 16})
	c := srv.canary

	logSrc := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, -1,
	}
	c.offer(rlibm.FuncLog, rlibm.PrecFloat32, logSrc, make([]float32, len(logSrc)))
	expSrc := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN())}
	c.offer(rlibm.FuncExp, rlibm.PrecFloat32, expSrc, make([]float32, len(expSrc)))

	srv.Close()
	if n := c.skipped.Value(); n != int64(len(logSrc)+len(expSrc)) {
		t.Errorf("skipped_total = %d, want %d", n, len(logSrc)+len(expSrc))
	}
	if n := c.checked.Value(); n != 0 {
		t.Errorf("checked_total = %d for all-inadmissible inputs, want 0", n)
	}
	// But negative inputs are admissible for exp: -1 must verify.
	srv2 := New(Config{Registry: obs.NewRegistry(), CanarySample: 1, CanaryQueue: 16})
	neg := []float32{-1}
	out := make([]float32, 1)
	rlibm.EvalBatch(rlibm.FuncExp, rlibm.Horner, out, neg)
	srv2.canary.offer(rlibm.FuncExp, rlibm.PrecFloat32, neg, out)
	srv2.Close()
	if n := srv2.canary.checked.Value(); n != 1 {
		t.Errorf("exp(-1) checked_total = %d, want 1 (negative exp inputs are admissible)", n)
	}
}

// TestCanaryStrideSampling: at a 1/4 rate, the stride samples exactly every
// 4th element across request boundaries — the counter is global, so small
// requests cannot dodge the canary.
func TestCanaryStrideSampling(t *testing.T) {
	srv := New(Config{Registry: obs.NewRegistry(), CanarySample: 0.25, CanaryQueue: 1 << 10})
	c := srv.canary
	src := []float32{0.5, 1.5}
	dst := make([]float32, 2)
	rlibm.EvalBatch(rlibm.FuncExp, rlibm.Horner, dst, src)
	// 10 two-element requests = 20 elements; every 4th sampled = 5.
	for i := 0; i < 10; i++ {
		c.offer(rlibm.FuncExp, rlibm.PrecFloat32, src, dst)
	}
	srv.Close()
	if n := c.checked.Value(); n != 5 {
		t.Errorf("checked_total = %d across 20 elements at rate 1/4, want 5", n)
	}
}

// TestCanaryDropNotBlockUnderSaturation: with the verifier wedged and a
// one-slot queue, a sustained stream of evals must complete at full speed —
// the canary drops samples (counted) rather than ever stalling a sweep.
func TestCanaryDropNotBlockUnderSaturation(t *testing.T) {
	srv := New(Config{
		Registry:           obs.NewRegistry(),
		CoalesceMaxRequest: -1,
		CanarySample:       1,
		CanaryQueue:        1,
	})
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	srv.canary.verifyHook = func(canaryItem) { <-release }
	t.Cleanup(srv.Close)
	t.Cleanup(unwedge) // LIFO: unwedge before Close waits on the worker

	src := make([]float32, 64)
	dst := make([]float32, 64)
	for i := range src {
		src[i] = float32(i)/8 + 0.125
	}
	start := time.Now()
	const evals = 200
	for i := 0; i < evals; i++ {
		var rs reqState
		srv.begin(&rs, 0)
		if err := srv.eval(rlibm.FuncExp2, rlibm.Horner, rlibm.PrecFloat32, dst, src, &rs); err != nil {
			t.Fatalf("eval %d under canary saturation: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// 200 × 64-element direct sweeps are microseconds each; anything near the
	// 5s bound means an offer blocked on the wedged worker.
	if elapsed > 5*time.Second {
		t.Errorf("%d evals took %v with the canary wedged — offers are blocking", evals, elapsed)
	}
	if n := srv.canary.dropped.Value(); n == 0 {
		t.Error("dropped_total = 0 with a wedged one-slot queue, want > 0")
	}

	unwedge()
	srv.Close()
	// Total disposition must account for every sampled element: one wedged in
	// the hook, some drained from the queue, the rest dropped.
	total := srv.canary.dropped.Value()
	if total >= evals*64 {
		t.Errorf("dropped_total = %d exceeds offered samples", total)
	}
}
