package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rlibm/internal/obs"
	"rlibm/internal/serve"
	"rlibm/perfbench/measure"
	"rlibm/pkg/rlibm"
)

// The serve phase: open-loop traffic from this one process against
// rlibm-serve running as a child with its shipped defaults. Small requests
// ride one stream connection into the coalescer; large binary requests ride
// one HTTP keep-alive connection onto the direct, fanned-out path. Every
// latency is timed from the moment the request was due.

const (
	smallElems = 64      // below the 4096-element coalescing cut
	largeElems = 1 << 16 // above the cut and the 2^15 fan-out threshold
	smallPool  = 1024    // distinct small payloads, drawn per request
	largePool  = 8       // distinct large payloads
	// smallRate is the fixed small-request rate, set for light load: about
	// 1% of the rate the capacity passes measure on a 2-vCPU Intel Xeon
	// virtual machine (max_small_rps, about 100000/s), so each request
	// meets an idle server and there is no queueing behind others.
	// Coalescing cannot be loaded at a fixed rate: the traffic is spread
	// over 72 coalescer lanes, so at any rate the server sustains two
	// requests seldom meet in one lane's sweep (requests_per_flush measured
	// 1.000 at 1000/s and 16000/s, 1.001 at 32000/s, 1.002 at 64000/s, and
	// 1.007 in the capacity passes, reported as
	// serve.capacity.requests_per_flush). At 32000/s the server's peak
	// resident set also varied from 43 to 85 MB between runs. An idle Go
	// process sleeps in whole milliseconds, so at this rate most of
	// small_p50_us is how late the generator sends (a median of about
	// 500us, serve.client.late_us_p50); see perfbench/README.md for why the
	// generator does not spin instead.
	smallRate = 1000
	// largeRate is the fixed large-request rate. At the ~2.5ms a large
	// request takes on that machine, 100/s keeps the direct path busy a
	// quarter of one core, and 11s of it gives over 1000 requests, ten
	// beyond the p99.
	largeRate = 100
	// drainWait bounds how long a window waits for its last responses; a
	// window with responses still outstanding then fails the run.
	drainWait = 5 * time.Second
	// capacityRequests is how many small requests one capacity pass sends:
	// about a third of a second of work at the ~100000/s a 2-vCPU machine
	// sustains, so a host stall of a few milliseconds moves a pass's rate
	// by about one percent.
	capacityRequests = 30000
	// capacityInFlight is how many small requests a capacity pass keeps
	// outstanding: four times the server's default stream window of 128,
	// so the server always has the next frames to read, and few enough
	// that nothing is shed and a request waits about 5 ms on average.
	// With 128 outstanding the same passes answered about 60000/s, with
	// 512 about 100000/s, with 2048 no more and with twice the spread.
	capacityInFlight = 512
	// capacityWait bounds a capacity pass; a pass still running then fails
	// the run.
	capacityWait = 30 * time.Second
	// capacityPercentile is the percentile of the capacity passes' rates
	// that max_small_rps reports; see capacity.
	capacityPercentile = 90
)

// serveConfig sizes one serve phase.
type serveConfig struct {
	smallWindow, largeWindow time.Duration // total fixed-rate traffic of each kind
	slices                   int           // pieces the fixed-rate traffic is cut into
	passes                   int           // capacity passes; max_small_rps is their 90th percentile
}

// payload is one request's inputs, its combination, and the result an
// Evaluator computed for it during set-up.
type payload struct {
	f    rlibm.Func
	s    rlibm.Scheme
	p    rlibm.Precision
	src  []float32
	want []float32
	body []byte // the binary HTTP encoding of src (large payloads only)
}

type serveState struct {
	small, large []payload
	srv          *server
	peakMB       float64 // the server's peak resident set after the fixed-rate traffic
}

// newServeInputs draws the request pools from rng and computes every
// reference result with an Evaluator.
func newServeInputs(rng *rand.Rand) (*serveState, error) {
	st := &serveState{}
	draw := func(n int) (payload, error) {
		pl := payload{
			f: rlibm.Funcs[rng.Intn(rlibm.NumFuncs)],
			s: rlibm.Schemes[rng.Intn(rlibm.NumSchemes)],
			p: rlibm.Precisions[rng.Intn(rlibm.NumPrecisions)],
		}
		pl.src = batchArray(pl.f, pl.p, n, rng)
		e, err := rlibm.New(pl.f, pl.s, rlibm.WithPrecision(pl.p))
		if err != nil {
			return pl, err
		}
		pl.want = make([]float32, n)
		e.EvalBatch(pl.want, pl.src)
		return pl, nil
	}
	for i := 0; i < smallPool; i++ {
		pl, err := draw(smallElems)
		if err != nil {
			return nil, err
		}
		st.small = append(st.small, pl)
	}
	for i := 0; i < largePool; i++ {
		pl, err := draw(largeElems)
		if err != nil {
			return nil, err
		}
		pl.body = make([]byte, 4*largeElems)
		for j, x := range pl.src {
			binary.LittleEndian.PutUint32(pl.body[4*j:], math.Float32bits(x))
		}
		st.large = append(st.large, pl)
	}
	return st, nil
}

// server is a running rlibm-serve child process.
type server struct {
	cmd        *exec.Cmd
	httpAddr   string
	streamAddr string
	exited     chan struct{}
	waitErr    error
}

// freePort reserves an ephemeral loopback port and releases it for the
// server to bind.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer runs bin with its shipped defaults on two free loopback
// ports and returns once /healthz answers. The child is killed if this
// process dies first.
func startServer(bin string, log io.Writer) (*server, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	streamAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", httpAddr, "-stream-addr", streamAddr)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, httpAddr: httpAddr, streamAddr: streamAddr, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("rlibm-serve exited before /healthz answered: %v", s.waitErr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("rlibm-serve did not answer /healthz within 10s")
		}
	}
}

// stop asks the server to drain and exit, kills it if it has not within
// five seconds, and waits until it has.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the server's peak resident set.
func (s *server) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// metricz fetches the server's registry snapshot.
func (s *server) metricz() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + s.httpAddr + "/metricz?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metricz: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// outcome is one request's record.
type outcome struct {
	due, sent, done time.Time
	err             error // transport error, in-band rejection or shed
	mismatch        bool  // a result differs from the reference
}

func (o *outcome) ok() bool { return o.err == nil && !o.mismatch && !o.done.IsZero() }

// window is one open-loop stretch of traffic.
type window struct {
	small, large []outcome
}

// openLoop sends request i at start+sched[i] through send, never waiting
// for earlier requests, then waits for every response. If the last ones
// have not arrived drainWait after the schedule ends, it calls abort, which
// must make the outstanding sends fail, and reports false.
func openLoop(start time.Time, sched []time.Duration, out []outcome, send func(i int, o *outcome), abort func()) bool {
	var wg sync.WaitGroup
	for i, at := range sched {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &out[i]
		o.due, o.sent = due, time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, o)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(drainWait):
		abort()
		<-done
		return false
	}
}

// clients holds the benchmark's two connections to the server.
type clients struct {
	stream *serve.StreamClient
	http   *http.Client
}

func dialClients(s *server) (*clients, error) {
	sc, err := serve.DialStream(s.streamAddr)
	if err != nil {
		return nil, fmt.Errorf("dialing the stream listener: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The timeout bounds a request the server never answers; a drain
	// timeout closes the stream connection for the same purpose.
	return &clients{stream: sc, http: &http.Client{Transport: tr, Timeout: drainWait}}, nil
}

// close fails every outstanding request and releases both connections.
func (c *clients) close() {
	c.stream.Close()
	c.http.CloseIdleConnections()
}

// The result buffers are pooled so the load generator allocates little
// per request: its garbage collections would otherwise delay the schedule.
var (
	smallBufs = sync.Pool{New: func() any { return new([smallElems]float32) }}
	largeBufs = sync.Pool{New: func() any { return new([4 * largeElems]byte) }}
)

func (c *clients) sendSmall(pl *payload, o *outcome) {
	buf := smallBufs.Get().(*[smallElems]float32)
	dst := buf[:len(pl.src)]
	err := c.stream.EvalPrec(pl.f, pl.s, pl.p, dst, pl.src)
	o.done, o.err, o.mismatch = time.Now(), err, err == nil && !sameBits(dst, pl.want)
	smallBufs.Put(buf)
}

func (c *clients) sendLarge(addr string, pl *payload, o *outcome) {
	o.mismatch, o.err = c.postLarge(addr, pl)
	o.done = time.Now()
}

// postLarge sends one large binary request and compares the response with
// the reference.
func (c *clients) postLarge(addr string, pl *payload) (mismatch bool, err error) {
	url := fmt.Sprintf("http://%s/v1/evalbin/%v/%v?prec=%v", addr, pl.f, pl.s, pl.p)
	resp, err := c.http.Post(url, "application/octet-stream", bytes.NewReader(pl.body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	buf := largeBufs.Get().(*[4 * largeElems]byte)
	defer largeBufs.Put(buf)
	body := buf[:4*len(pl.want)]
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %s", resp.Status)
	}
	if resp.ContentLength != int64(len(body)) {
		return false, fmt.Errorf("response of %d bytes, want %d", resp.ContentLength, len(body))
	}
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return false, err
	}
	for i, w := range pl.want {
		if binary.LittleEndian.Uint32(body[4*i:]) != math.Float32bits(w) {
			return true, nil
		}
	}
	return false, nil
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// serveRun is one serve phase in progress. Its steps interleave with the
// other phases' work; the connections stay open in between.
type serveRun struct {
	st     *serveState
	tr     *measure.Tracer
	parent measure.SpanID
	rng    *rand.Rand
	res    *result
	c      *clients
	before obs.Snapshot
	after  obs.Snapshot
	w      window
	rates  []float64
	// sliceP50 holds each fixed-rate slice's median small-request latency.
	sliceP50 []float64
}

// steps cuts the serve phase into steps: connecting; the fixed-rate
// traffic in slices, each a small-request window then a large-request one
// (run concurrently on two cores, each kind disturbed the other's latencies
// by more than any change the benchmark should detect); reading the
// server's counters and peak memory; the capacity passes; and reporting.
// The load generator collects its garbage less often during each step, so
// its own pauses stay out of the schedule.
func (st *serveState) steps(tr *measure.Tracer, parent measure.SpanID, cfg serveConfig, rng *rand.Rand, res *result) []func() error {
	r := &serveRun{st: st, tr: tr, parent: parent, rng: rng, res: res}
	steps := []func() error{r.open}
	for i := 0; i < cfg.slices; i++ {
		steps = append(steps, func() error {
			return r.window(cfg.smallWindow/time.Duration(cfg.slices), cfg.largeWindow/time.Duration(cfg.slices))
		})
	}
	steps = append(steps, r.windowsDone)
	for i := 0; i < cfg.passes; i++ {
		steps = append(steps, r.capacityPass)
	}
	steps = append(steps, r.report)
	for i, step := range steps {
		steps[i] = func() error {
			defer debug.SetGCPercent(debug.SetGCPercent(400))
			return step()
		}
	}
	return steps
}

func (r *serveRun) open() error {
	c, err := dialClients(r.st.srv)
	if err != nil {
		return err
	}
	r.c = c
	r.before, err = r.st.srv.metricz()
	return err
}

// window offers small requests at smallRate for smallDur, then large ones
// at largeRate for largeDur.
func (r *serveRun) window(smallDur, largeDur time.Duration) error {
	smallSched := measure.Poisson(r.rng, smallRate, smallDur)
	largeSched := measure.Poisson(r.rng, largeRate, largeDur)
	smallPick := picks(r.rng, len(smallSched), len(r.st.small))
	largePick := picks(r.rng, len(largeSched), len(r.st.large))
	small := make([]outcome, len(smallSched))
	large := make([]outcome, len(largeSched))
	wt := r.tr.Begin("serve.window", r.parent)
	defer wt.End()
	if !openLoop(time.Now().Add(10*time.Millisecond), smallSched, small, func(i int, o *outcome) {
		sp := r.tr.BeginAt("serve.small", wt.ID(), o.due)
		r.c.sendSmall(&r.st.small[smallPick[i]], o)
		sp.End()
	}, r.c.close) {
		return errors.New("serve: small requests still outstanding after the drain wait")
	}
	// The client's timeout ends a stuck large request, so abort need not.
	if len(largeSched) > 0 && !openLoop(time.Now().Add(10*time.Millisecond), largeSched, large, func(i int, o *outcome) {
		sp := r.tr.BeginAt("serve.large", wt.ID(), o.due)
		r.c.sendLarge(r.st.srv.httpAddr, &r.st.large[largePick[i]], o)
		sp.End()
	}, func() {}) {
		return errors.New("serve: large requests still outstanding after the drain wait")
	}
	if lat, _ := latencies(small); len(lat) > 0 {
		r.sliceP50 = append(r.sliceP50, measure.Median(lat))
	}
	r.w.small = append(r.w.small, small...)
	r.w.large = append(r.w.large, large...)
	return nil
}

// windowsDone reads the server's counters and its peak resident set, which
// after the fixed-rate traffic and before the capacity passes is its peak
// under steady load, and reports the fixed-rate latencies. The capacity
// passes then grow the server's resident set from pass to pass (from 29 to
// 64 MB over 30 passes in one run), so its peak over them would depend on
// how many passes a run makes.
func (r *serveRun) windowsDone() error {
	var err error
	if r.after, err = r.st.srv.metricz(); err != nil {
		return err
	}
	if r.st.peakMB, err = r.st.srv.peakRSSMB(); err != nil {
		return err
	}
	res, w := r.res, r.w
	smallLat, smallFail := latencies(w.small)
	largeLat, largeFail := latencies(w.large)
	res.attempted += int64(len(w.small) + len(w.large))
	res.failed += int64(smallFail + largeFail)
	for _, o := range append(w.small, w.large...) {
		if o.mismatch {
			res.gate("a serve response differs from the Evaluator reference")
			break
		}
	}
	// The median over slices of each slice's median: a slice that meets a
	// slow spell of the host moves it less than it moves the pooled median.
	res.e2e["small_p50_us"] = measure.Median(r.sliceP50)
	if r.tr.On() {
		res.layer["serve.large.p50_us"] = measure.Median(largeLat)
		for _, k := range []struct {
			name string
			lat  []float64
		}{{"small", smallLat}, {"large", largeLat}} {
			if err := tailOK(k.name, k.lat); err != nil {
				res.gate(err.Error())
			}
			res.layer["serve."+k.name+".p99_us"] = measure.Percentile(k.lat, 99)
		}
	}
	res.note(fmt.Sprintf("serve windows: %d small (p%v rule, %d ok), %d large (p%v rule, %d ok)",
		len(w.small), measure.TailPercentile(len(smallLat)), len(smallLat),
		len(w.large), measure.TailPercentile(len(largeLat)), len(largeLat)))
	return nil
}

func (r *serveRun) capacityPass() error {
	rate, err := r.st.capacity(r.tr, r.parent, r.c, r.rng, r.res)
	r.rates = append(r.rates, rate)
	return err
}

// report closes the connections and reports the capacity and, traced, the
// server's per-phase figures over the fixed-rate traffic and its
// coalescing over the capacity passes.
func (r *serveRun) report() error {
	r.c.close()
	r.res.e2e["max_small_rps"] = measure.Percentile(r.rates, capacityPercentile)
	if r.tr.On() {
		serveLayers(r.before, r.after, r.w, r.res)
		end, err := r.st.srv.metricz()
		if err != nil {
			return err
		}
		r.res.layer["serve.capacity.requests_per_flush"] = requestsPerFlush(r.after, end)
		r.res.layer["serve.capacity.median_rps"] = measure.Median(r.rates)
	}
	return nil
}

// requestsPerFlush is the number of requests per coalesced sweep between
// two /metricz snapshots.
func requestsPerFlush(before, after obs.Snapshot) float64 {
	return ratio(after.Counter("serve.coalesce.requests")-before.Counter("serve.coalesce.requests"),
		after.Counter("serve.coalesce.flushes")-before.Counter("serve.coalesce.flushes"))
}

// tailOK requires enough samples for the p99 the metric names to leave ten
// samples beyond it.
func tailOK(kind string, lat []float64) error {
	if p := measure.TailPercentile(len(lat)); p < 99 {
		return fmt.Errorf("%s requests: %d samples support only p%v, not p99; lengthen the window", kind, len(lat), p)
	}
	return nil
}

// picks draws n payload indices below m.
func picks(rng *rand.Rand, n, m int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(m)
	}
	return out
}

// latencies returns the due-to-done latencies in microseconds of the
// requests that succeeded, and how many did not.
func latencies(out []outcome) (lat []float64, failed int) {
	for i := range out {
		if !out[i].ok() {
			failed++
			continue
		}
		lat = append(lat, float64(out[i].done.Sub(out[i].due).Nanoseconds())/1e3)
	}
	return lat, failed
}

// capacity sends capacityRequests small requests as fast as the server
// answers them, keeping capacityInFlight outstanding on the stream
// connection, and returns the requests that succeeded per second, from the
// first send to the last answer: the small-request rate the server
// sustained over the pass. The pass's sent, succeeded and failed counts
// and its p99 are recorded in the run notes.
//
// max_small_rps is the capacityPercentile-th percentile of the passes'
// rates, not their median. The host takes CPU time from the guest in
// spells, and a pass's rate follows what it takes: on a 2-vCPU virtual
// machine, passes in which the host took a fifth of the guest's CPU time
// (the steal column of /proc/stat) answered 63000-68000/s, passes it left
// alone 90000-115000/s. Among the 24 or 30 passes of a run some meet no
// spell, and the upper percentile reports those; the median followed how
// much of the run the spells covered, and over eight runs of 20 passes its
// spread (0.22) was nearly twice the 90th percentile's (0.12). The median is reported per
// layer as serve.capacity.median_rps.
func (st *serveState) capacity(tr *measure.Tracer, parent measure.SpanID, c *clients, rng *rand.Rand, res *result) (float64, error) {
	pick := picks(rng, capacityRequests, len(st.small))
	out := make([]outcome, capacityRequests)
	var next atomic.Int64
	var wg sync.WaitGroup
	sp := tr.Begin("serve.capacity", parent)
	start := time.Now()
	for w := 0; w < capacityInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(out); i = int(next.Add(1)) - 1 {
				o := &out[i]
				o.sent = time.Now()
				o.due = o.sent
				c.sendSmall(&st.small[pick[i]], o)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(capacityWait):
		c.close() // fails the outstanding requests and every later one
		<-done
		sp.End()
		return 0, fmt.Errorf("serve: capacity pass still running after %v", capacityWait)
	}
	sp.End()
	var last time.Time
	for i := range out {
		if out[i].done.After(last) {
			last = out[i].done
		}
		if out[i].mismatch {
			res.gate("a serve response differs from the Evaluator reference")
		}
	}
	lat, failed := latencies(out)
	res.attempted += int64(len(out))
	res.failed += int64(failed)
	rate := float64(len(lat)) / last.Sub(start).Seconds()
	res.note(fmt.Sprintf("capacity pass: sent %d, succeeded %d, failed %d, %.0f/s, p99 %.0fus",
		len(out), len(lat), failed, rate, measure.Percentile(lat, 99)))
	return rate, nil
}

// serveLayers derives the per-phase server figures from the /metricz
// deltas of the fixed-rate window, aggregated over every combination.
func serveLayers(before, after obs.Snapshot, w window, res *result) {
	var phaseSum float64
	for _, ph := range []string{"decode", "queue", "sweep", "encode"} {
		var hs []obs.HistogramSnapshot
		for name, h := range after.Histograms {
			if strings.HasPrefix(name, "serve/") && strings.HasSuffix(name, "/phase/"+ph+"_ns") {
				hs = append(hs, histDelta(h, before.Histograms[name]))
			}
		}
		count, sum := int64(0), int64(0)
		for _, h := range hs {
			count += h.Count
			sum += h.Sum
		}
		mean := 0.0
		if count > 0 {
			mean = float64(sum) / float64(count) / 1e3
		}
		phaseSum += mean
		res.layer["serve."+ph+".mean_us"] = mean
		res.layer["serve."+ph+".p99_us"] = histQuantile(hs, 0.99) / 1e3
	}
	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	res.layer["serve.coalesce.requests_per_flush"] = requestsPerFlush(before, after)
	sent := float64(len(w.small) + len(w.large))
	res.layer["serve.shed_ratio"] = delta("serve.shed_total") / sent
	var client, late []float64
	for _, o := range append(w.small, w.large...) {
		if o.ok() {
			client = append(client, float64(o.done.Sub(o.sent).Nanoseconds())/1e3)
		}
		if !o.sent.IsZero() {
			late = append(late, float64(o.sent.Sub(o.due).Nanoseconds())/1e3)
		}
	}
	res.layer["serve.unattributed_us"] = mean(client) - phaseSum
	res.layer["serve.client.late_us_p50"] = measure.Median(late)
	res.layer["serve.client.late_us_p99"] = measure.Percentile(late, 99)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// histDelta returns the observations h gained since prev.
func histDelta(h, prev obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	old := map[int64]int64{}
	for _, b := range prev.Buckets {
		old[b.Hi] = b.Count
	}
	for _, b := range h.Buckets {
		if n := b.Count - old[b.Hi]; n > 0 {
			d.Buckets = append(d.Buckets, obs.Bucket{Lo: b.Lo, Hi: b.Hi, Count: n})
		}
	}
	return d
}

// histQuantile estimates the q-quantile of merged log-2 histograms,
// interpolating linearly inside the bucket that holds it.
func histQuantile(hs []obs.HistogramSnapshot, q float64) float64 {
	merged := map[int64]obs.Bucket{}
	var total int64
	for _, h := range hs {
		for _, b := range h.Buckets {
			m := merged[b.Hi]
			m.Lo, m.Hi, m.Count = b.Lo, b.Hi, m.Count+b.Count
			merged[b.Hi] = m
			total += b.Count
		}
	}
	if total == 0 {
		return 0
	}
	bs := make([]obs.Bucket, 0, len(merged))
	for _, b := range merged {
		bs = append(bs, b)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].Hi < bs[j].Hi })
	target := q * float64(total)
	cum := 0.0
	for _, b := range bs {
		if cum+float64(b.Count) >= target {
			return float64(b.Lo) + (target-cum)/float64(b.Count)*float64(b.Hi-b.Lo)
		}
		cum += float64(b.Count)
	}
	return float64(bs[len(bs)-1].Hi)
}

// peakRSSMB reads VmHWM, the peak resident set, from a /proc status file.
func peakRSSMB(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// resetPeakRSS restarts this process's VmHWM count from its current
// resident set, so a phase's peak excludes the phases before it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
