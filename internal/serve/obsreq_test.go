package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// newObsTestServer is newTestServer plus access to the Server itself (for the
// canary and phase instruments) and a guaranteed Close, which the canary's
// background worker needs.
func newObsTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, cfg.Registry
}

// TestHTTPTraceEcho: a client-supplied X-Trace-Id comes back verbatim on the
// response; a request without one gets a fresh ingress-assigned id, echoed so
// the client can correlate its logs with the server's spans.
func TestHTTPTraceEcho(t *testing.T) {
	_, ts, _ := newObsTestServer(t, Config{})
	post := func(traceHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/evalbin/exp/rlibm",
			bytes.NewReader(make([]byte, 4)))
		if err != nil {
			t.Fatal(err)
		}
		if traceHeader != "" {
			req.Header.Set(obs.TraceHeader, traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		return resp
	}

	const supplied = "00000000deadbeef"
	if got := post(supplied).Header.Get(obs.TraceHeader); got != supplied {
		t.Errorf("supplied trace echoed as %q, want %q", got, supplied)
	}
	assigned := post("").Header.Get(obs.TraceHeader)
	if id, ok := obs.ParseTraceID(assigned); !ok || id == 0 {
		t.Errorf("ingress-assigned trace %q is not a valid nonzero id", assigned)
	}
	// Garbage in the header must not be trusted: the server assigns instead.
	if got := post("not-hex!").Header.Get(obs.TraceHeader); got == "not-hex!" {
		t.Error("unparseable client trace id echoed verbatim, want a fresh id")
	}
}

// TestSamplerStride: the -trace-sample decision is a deterministic stride —
// rate 0 never fires, rate 1 always fires, rate 1/4 fires exactly every 4th.
func TestSamplerStride(t *testing.T) {
	count := func(rate float64, n int) int {
		s := newSampler(rate)
		hits := 0
		for i := 0; i < n; i++ {
			if s.sample() {
				hits++
			}
		}
		return hits
	}
	if got := count(0, 100); got != 0 {
		t.Errorf("rate 0: %d samples, want 0", got)
	}
	if got := count(1, 100); got != 100 {
		t.Errorf("rate 1: %d samples, want 100", got)
	}
	if got := count(0.25, 100); got != 25 {
		t.Errorf("rate 0.25: %d samples of 100, want 25", got)
	}
	if got := count(math.NaN(), 100); got != 0 {
		t.Errorf("rate NaN: %d samples, want 0", got)
	}
	// 1/rate + 0.5 exceeds the int64 range below ~1.1e-19; the stride caps
	// instead of wrapping negative.
	for _, rate := range []float64{1e-19, 5e-324} {
		if got := sampleStride(rate); got != math.MaxInt64 {
			t.Errorf("rate %g: stride %d, want MaxInt64", rate, got)
		}
		if got := count(rate, 100); got != 0 {
			t.Errorf("rate %g: %d samples of 100, want 0", rate, got)
		}
	}
}

// TestObservabilityBitIdentity: with full tracing AND the canary sampling
// every element, both HTTP endpoints still return exactly the direct kernel
// results — the observability layer watches the data path, never touches it.
func TestObservabilityBitIdentity(t *testing.T) {
	srv, ts, reg := newObsTestServer(t, Config{
		Tracer:       obs.NewTracer(io.Discard),
		TraceSample:  1,
		CanarySample: 1,
		CanaryQueue:  1 << 12,
	})
	rng := rand.New(rand.NewSource(7))
	src := []float32{0.5, 1, 1.5, 2, 100, 1e-20}
	for i := 0; i < 60; i++ {
		src = append(src, float32(rng.Float64()*20+0.001))
	}

	for _, combo := range []struct{ fn, scheme string }{
		{"exp", "rlibm"},
		{"log2", "rlibm-estrin-fma"},
		{"exp10", "rlibm-knuth"},
		{"log", "rlibm-estrin"},
	} {
		got, resp := binEval(t, ts.URL, combo.fn, combo.scheme, src)
		if got == nil {
			t.Fatalf("%s/%s: binary status %d", combo.fn, combo.scheme, resp.StatusCode)
		}
		for i, x := range src {
			want := wantFor(t, combo.fn, combo.scheme, x)
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("%s/%s binary under tracing: f(%g) = %x, want %x",
					combo.fn, combo.scheme, x, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
		got, resp = jsonEval(t, ts.URL, combo.fn, combo.scheme, src[:16])
		if got == nil {
			t.Fatalf("%s/%s: json status %d", combo.fn, combo.scheme, resp.StatusCode)
		}
		for i, x := range src[:16] {
			want := wantFor(t, combo.fn, combo.scheme, x)
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("%s/%s json under tracing: f(%g) = %x, want %x",
					combo.fn, combo.scheme, x, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	}

	// Every served element was admissible and sampled; after Close the canary
	// has drained, so the verdict is final: checked everything, nothing wrong.
	srv.Close()
	snap := reg.Snapshot()
	if n := snap.Counter("serve.canary.checked_total"); n == 0 {
		t.Error("canary checked nothing despite CanarySample=1")
	}
	if n := snap.Counter("serve.canary.mismatch_total"); n != 0 {
		t.Errorf("canary found %d mismatches on correct traffic", n)
	}
}

// TestPhaseHistogramsPopulated: serving a request on each HTTP transport
// fills all four attribution phases of that combo's histograms — a request
// can never lose a phase.
func TestPhaseHistogramsPopulated(t *testing.T) {
	_, ts, reg := newObsTestServer(t, Config{})
	src := []float32{0.5, 1, 2, 4}
	if got, resp := binEval(t, ts.URL, "exp", "rlibm", src); got == nil {
		t.Fatalf("binary eval failed: %d", resp.StatusCode)
	}
	if got, resp := jsonEval(t, ts.URL, "exp", "rlibm", src); got == nil {
		t.Fatalf("json eval failed: %d", resp.StatusCode)
	}
	snap := reg.Snapshot()
	for _, phase := range []string{"decode_ns", "queue_ns", "sweep_ns", "encode_ns"} {
		name := "serve/exp/rlibm/phase/" + phase
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %q missing", name)
			continue
		}
		if h.Count != 2 {
			t.Errorf("%s count = %d, want 2 (one per transport)", name, h.Count)
		}
	}
	if n := snap.Counter("serve.eval.requests_total"); n != 2 {
		t.Errorf("serve.eval.requests_total = %d, want 2", n)
	}
}

// TestStatuszPage: the human status page reports build identity, aggregate
// load, the canary verdict and a latency row for every combo that served
// traffic — and only those.
func TestStatuszPage(t *testing.T) {
	srv, ts, _ := newObsTestServer(t, Config{CanarySample: 1, CanaryQueue: 1 << 10})
	if got, resp := binEval(t, ts.URL, "log2", "rlibm-estrin-fma", []float32{1, 2, 4, 8}); got == nil {
		t.Fatalf("eval failed: %d", resp.StatusCode)
	}
	srv.Close() // drain the canary so the verdict below is deterministic

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	page := body.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("statusz Content-Type = %q, want text/plain", ct)
	}
	for _, want := range []string{
		"rlibm-serve status",
		"build:",
		"backend:",
		"configured auto",
		"uptime:",
		"eval requests served:  1",
		"canary: OK",
		"log2   rlibm-estrin-fma",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q:\n%s", want, page)
		}
	}
	// Combos that served nothing stay off the table.
	if strings.Contains(page, "exp10") {
		t.Errorf("statusz lists an idle combo:\n%s", page)
	}
}

// TestStatuszCanaryDisabled: with no canary configured the page says so
// instead of implying a passing check that never ran.
func TestStatuszCanaryDisabled(t *testing.T) {
	_, ts, _ := newObsTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "canary: disabled") {
		t.Errorf("statusz without canary missing the disabled line:\n%s", body.String())
	}
}

// TestHealthzBuildIdentity: the liveness body names the binary answering.
func TestHealthzBuildIdentity(t *testing.T) {
	_, ts, _ := newObsTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Status    string `json:"status"`
		Git       string `json:"git"`
		GoVersion string `json:"go_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if got.Status != "ok" {
		t.Errorf("status = %q, want ok", got.Status)
	}
	if got.Git == "" {
		t.Error("healthz git identity empty")
	}
	if !strings.HasPrefix(got.GoVersion, "go") {
		t.Errorf("healthz go_version = %q, want a go version", got.GoVersion)
	}
}

// TestMetriczBuildInfoAndRuntime: both exposition formats carry the build
// identity, and the JSON snapshot includes scrape-fresh runtime gauges.
func TestMetriczBuildInfoAndRuntime(t *testing.T) {
	_, ts, _ := newObsTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metricz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		obs.Snapshot
		BuildInfo obs.BuildIdentity `json:"build_info"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding metricz json: %v", err)
	}
	resp.Body.Close()
	if snap.BuildInfo.Git == "" || snap.BuildInfo.GoVersion == "" {
		t.Errorf("metricz build_info incomplete: %+v", snap.BuildInfo)
	}
	if snap.Gauge("runtime/goroutines") < 1 {
		t.Errorf("runtime/goroutines = %d, want >= 1", snap.Gauge("runtime/goroutines"))
	}
	if snap.Gauge("runtime/heap_alloc_bytes") <= 0 {
		t.Error("runtime/heap_alloc_bytes missing from metricz snapshot")
	}

	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(prom.String(), "build_info{git=") {
		t.Errorf("prometheus metricz missing the build_info sample:\n%.500s", prom.String())
	}
}

// TestUntracedFastPathZeroAlloc: with the canary at full sampling and its
// worker wedged (so the bounded queue is saturated and every offer takes the
// drop path), one complete instrumented eval — begin, direct-path sweep,
// canary offers, phase observation — allocates nothing. This is the
// always-on cost of the observability layer.
func TestUntracedFastPathZeroAlloc(t *testing.T) {
	srv := New(Config{
		Registry:           obs.NewRegistry(),
		CoalesceMaxRequest: -1, // direct path: the coalescer's waiter handoff is its own test
		CanarySample:       1,
		CanaryQueue:        1,
	})
	release := make(chan struct{})
	srv.canary.verifyHook = func(canaryItem) { <-release }
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // LIFO: unwedge before Close drains

	src := make([]float32, 64)
	dst := make([]float32, 64)
	for i := range src {
		src[i] = float32(i)/8 + 0.125
	}
	avg := testing.AllocsPerRun(200, func() {
		var rs reqState
		srv.begin(&rs, 0)
		if err := srv.eval(rlibm.FuncExp, rlibm.Horner, rlibm.PrecFloat32, dst, src, &rs); err != nil {
			t.Fatalf("eval: %v", err)
		}
		srv.observePhases(rlibm.FuncExp, rlibm.Horner, "bin", len(src), &rs)
	})
	if avg != 0 {
		t.Errorf("instrumented untraced eval allocates %.2f objects/op, want 0", avg)
	}
}

// TestStreamTraceEchoOutOfOrder: many goroutines fire traced requests with
// distinct ids over ONE coalescing connection, so responses complete out of
// order. The client verifies every response's echoed trace id against the
// request's before accepting it — any misrouted frame fails the Eval — and
// the results must still be bit-identical to direct kernel calls. Run under
// -race this doubles as the concurrency check on the trace plumbing.
func TestStreamTraceEchoOutOfOrder(t *testing.T) {
	_, addr := startStreamServer(t, Config{
		CoalesceMaxRequest: 4096,
		CoalesceFlushElems: 2048,
		CoalesceMaxDelay:   time.Millisecond,
	})
	c, err := DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for r := 0; r < 25; r++ {
				f := rlibm.Funcs[(g+r)%rlibm.NumFuncs]
				sch := rlibm.Schemes[(g*3+r)%rlibm.NumSchemes]
				n := 1 + rng.Intn(48)
				src := make([]float32, n)
				for i := range src {
					src[i] = math.Float32frombits(rng.Uint32())
				}
				dst := make([]float32, n)
				trace := obs.NewTraceID()
				if err := c.EvalTraced(f, sch, dst, src, trace); err != nil {
					t.Errorf("%v/%v traced eval: %v", f, sch, err)
					return
				}
				ev, err := rlibm.New(f, sch)
				if err != nil {
					t.Errorf("%v/%v: %v", f, sch, err)
					return
				}
				k := ev.Kernel()
				for i, x := range src {
					want := float32(k(float64(x)))
					if math.Float32bits(dst[i]) != math.Float32bits(want) &&
						!(isNaN32(dst[i]) && isNaN32(want)) {
						t.Errorf("%v/%v(%x) traced: got %x, want %x", f, sch,
							math.Float32bits(x), math.Float32bits(dst[i]), math.Float32bits(want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
