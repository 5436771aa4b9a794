package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rlibm/internal/obs"
	"rlibm/pkg/rlibm"
)

// Request-level observability: every eval request — HTTP JSON, HTTP binary,
// or stream frame — carries one reqState through its whole life. The state
// is a plain value on the handler's stack: phase timestamps are recorded
// into it as the request moves through decode, the coalescer queue, the
// shared sweep and encode, and observePhases folds it into the per-combo
// instruments once the response bytes are written. Nothing on this path
// allocates, so the instrumentation is always on; only the sampled trace
// emission (JSONL writes) is gated by -trace-sample.

// phaseSet is the per-(func,scheme) instrument bundle: one histogram per
// attribution phase (all durations in nanoseconds, exported on /metricz) and
// a rolling latency window backing /statusz's p50/p99.
type phaseSet struct {
	decode *obs.Histogram // transport bytes -> float32 inputs
	queue  *obs.Histogram // coalescer queue-wait, or direct-path semaphore wait
	sweep  *obs.Histogram // the EvalBatch sweep the request rode
	encode *obs.Histogram // float32 results -> transport bytes, written
	e2e    *obs.RollingWindow
}

// statuszWindow / statuszAge size the per-combo rolling windows: enough
// samples for a stable p99 under load, short enough that /statusz reflects
// the last minute rather than the process lifetime.
const (
	statuszWindow = 2048
	statuszAge    = time.Minute
)

func newPhaseSet(f rlibm.Func, sch rlibm.Scheme, reg *obs.Registry) *phaseSet {
	prefix := fmt.Sprintf("serve/%v/%v/phase/", f, sch)
	return &phaseSet{
		decode: reg.Histogram(prefix + "decode_ns"),
		queue:  reg.Histogram(prefix + "queue_ns"),
		sweep:  reg.Histogram(prefix + "sweep_ns"),
		encode: reg.Histogram(prefix + "encode_ns"),
		e2e:    obs.NewRollingWindow(statuszWindow, statuszAge),
	}
}

// reqState accumulates one request's observability facts. It lives on the
// transport goroutine's stack; the coalescer reports sweep timing back over
// the waiter's completion channel rather than holding a pointer to it, so
// the state never escapes the request.
type reqState struct {
	start   time.Time
	trace   obs.TraceID
	sampled bool // emit trace spans for this request

	decode time.Duration
	queue  time.Duration
	sweep  time.Duration
	encode time.Duration
}

// begin stamps the request start and decides trace sampling once, so every
// phase of one request is either fully traced or fully untraced.
func (s *Server) begin(rs *reqState, trace obs.TraceID) {
	rs.start = time.Now()
	rs.trace = trace
	rs.sampled = s.cfg.Tracer != nil && s.sampler.sample()
}

// observePhases records rs into the per-combo instruments and, for sampled
// requests, emits the four child span lines. transport is "json", "bin" or
// "stream".
func (s *Server) observePhases(f rlibm.Func, sch rlibm.Scheme, transport string, elems int, rs *reqState) {
	ps := s.phases[f][sch]
	ps.decode.ObserveDuration(rs.decode)
	ps.queue.ObserveDuration(rs.queue)
	ps.sweep.ObserveDuration(rs.sweep)
	ps.encode.ObserveDuration(rs.encode)
	ps.e2e.ObserveDuration(time.Since(rs.start))
	s.evalRequests.Inc()
	if !rs.sampled {
		return
	}
	attrs := obs.Attrs{
		"trace":     rs.trace.String(),
		"func":      f.String(),
		"scheme":    sch.String(),
		"transport": transport,
		"elems":     elems,
	}
	tr := s.cfg.Tracer
	tr.Dur("serve.decode", attrs, rs.decode)
	tr.Dur("serve.queue", attrs, rs.queue)
	tr.Dur("serve.sweep", attrs, rs.sweep)
	tr.Dur("serve.encode", attrs, rs.encode)
}

// sampler makes the -trace-sample decision with one atomic add and no
// per-request random draw: a rate of r samples every round(1/r)-th request.
// Deterministic striding keeps the fast path branch-predictable and, unlike
// a seeded rng, needs no locking.
type sampler struct {
	every int64 // 0 disables; 1 samples everything
	n     atomic.Int64
}

func newSampler(rate float64) *sampler {
	return &sampler{every: sampleStride(rate)}
}

// sampleStride is the stride of an every-Nth sampler at the given rate,
// shared by the trace sampler and the canary: 0 (off) unless rate > 0, so
// NaN is off too; 1 for rates of 1 and above; round(1/rate) otherwise,
// capped at math.MaxInt64 so that a tiny rate samples almost never instead
// of converting out of range into a negative stride.
func sampleStride(rate float64) int64 {
	switch {
	case !(rate > 0):
		return 0
	case rate >= 1:
		return 1
	}
	n := 1/rate + 0.5
	if n >= math.MaxInt64 { // the constant converts to 2^63
		return math.MaxInt64
	}
	return int64(n)
}

func (s *sampler) sample() bool {
	if s.every == 0 {
		return false
	}
	return s.n.Add(1)%s.every == 0
}
