// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints every metric by name, with its unit,
// after checking the program's outputs. perfbench/run.sh builds it and
// rlibm-serve from the checkout and runs it from the repository root:
//
//	bash perfbench/run.sh --workload libm --seed 1 --seconds 25 --trace 0
//
// Every run exercises three phases: libm (in-process library calls), serve
// (open-loop traffic against an rlibm-serve child) and offline (polynomial
// generation and a verification campaign). The workload names the phase
// that gets the run's time at full size; the other two run at a small fixed
// size, so every end-to-end metric is measured on every workload. With
// --trace 1 the run instead reports per-layer metrics, read from spans
// recorded around each call into a layer and from the counters the layers
// export. See perfbench/README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rlibm/internal/campaign"
	"rlibm/internal/obs"
	"rlibm/perfbench/measure"
	"rlibm/pkg/rlibm"
)

// result accumulates one run's figures.
type result struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	gates             []string // output checks that failed
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// gate records a failed output check; the run then reports correct=false.
func (r *result) gate(msg string) {
	if len(r.gates) < 20 {
		r.gates = append(r.gates, msg)
	}
}

func (r *result) note(msg string) { r.notes = append(r.notes, msg) }

// setupReps is how many fresh processes a run sets every phase up in;
// setup_s is the median.
const setupReps = 11

// The sizes of each phase. A phase runs at its focus size in the workload
// named after it and at its probe size in the other two.
var (
	probeLibm = 3 * time.Second
	// The serve probe's small-request window gives its median thousands of
	// requests, in slices spread over the run.
	probeServe = serveConfig{smallWindow: 5 * time.Second, slices: 12, passes: 24}
	focusServe = serveConfig{slices: 12, passes: 30}
	// The offline probe, which only traced runs include, generates at 16
	// bits and runs a coarse campaign.
	probeOffline = offlineConfig{bits: 16, stride: 65537, passes: 12}
	focusOffline = offlineConfig{bits: 20, stride: campaign.SmokeStride, passes: 1}
	// probeServeTime is about how long the serve probe takes.
	probeServeTime = 14 * time.Second
)

// focusCapacityTime is about what the focus phase's capacity passes take,
// near 100000 requests/s on a 2-core box.
const focusCapacityTime = 10 * time.Second

var workloads = []string{"libm", "serve", "offline"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: libm, serve or offline")
		seed     = flag.Int64("seed", 1, "seed every input and arrival schedule is drawn from")
		seconds  = flag.Int("seconds", 25, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		serveBin = flag.String("serve-bin", "", "rlibm-serve binary to run")
		outDir   = flag.String("out", ".bench_build/results", "directory for the run report, spans and scratch files")
		setupOne = flag.Bool("setup-only", false, "set every phase up once, print \"ready\", tear down and exit; a run times its set-up in such children")
	)
	flag.Parse()
	if *setupOne {
		if err := setUpOnly(*workload, *seed, *trace == 1, *serveBin, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -setup-only:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *serveBin, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// phases is one run's set-up state.
type phases struct {
	libm    *libmState
	serve   *serveState
	offline *offlineState
}

func (p *phases) close() {
	if p.serve != nil && p.serve.srv != nil {
		p.serve.srv.stop()
	}
	if p.offline != nil {
		p.offline.close()
	}
}

// setUp builds every phase's inputs and references, starts the server and
// plans the campaign. Tracing only adds the inputs of the per-layer passes.
func setUp(seed int64, traced bool, serveBin, scratch string, offCfg offlineConfig, serverLog *os.File) (*phases, error) {
	p := &phases{}
	var err error
	if p.libm, err = newLibm(rngFor(seed, 1), traced); err != nil {
		return p, err
	}
	if p.serve, err = newServeInputs(rngFor(seed, 2)); err != nil {
		return p, err
	}
	if p.serve.srv, err = startServer(serveBin, serverLog); err != nil {
		return p, err
	}
	p.offline, err = newOffline(offCfg, scratch, seed)
	return p, err
}

// schedule runs every phase once: the workload's own phase at its focus
// size, the other two at their probe sizes. The serve and offline phases
// are cut into steps that alternate, and a slice of libm rounds runs before
// and after every step, so each phase's samples spread over the whole run
// and its medians span the host's changes of speed rather than a few
// seconds of them. The large-request traffic and the offline probe feed
// per-layer metrics only, so only full schedules, those of traced runs,
// include them.
func (p *phases) schedule(workload string, seed int64, seconds time.Duration, full bool, tr *measure.Tracer, hashFile string, res *result) error {
	root := tr.Begin("run", 0)
	defer root.End()
	serveCfg, libmTime := probeServe, probeLibm
	switch workload {
	case "libm":
		libmTime = seconds - probeServeTime
	case "serve":
		serveCfg = focusServe
		serveCfg.smallWindow = seconds - probeLibm - focusCapacityTime
	}
	// Enough large requests for the per-layer p99.
	serveCfg.largeWindow = 0
	if full {
		serveCfg.largeWindow = 11 * time.Second
	}
	serveSteps := p.serve.steps(tr, root.ID(), serveCfg, rngFor(seed, 3), res)
	var offSteps []func() error
	if workload == "offline" || full {
		offSteps = p.offline.steps(tr, root.ID(), rngFor(seed, 4), hashFile, res)
	}
	if workload == "offline" {
		// Each offline step's peak resident set, from a fresh baseline, so
		// the other phases' memory does not count.
		for i, step := range offSteps {
			offSteps[i] = func() error {
				debug.FreeOSMemory()
				if err := resetPeakRSS(); err != nil {
					return fmt.Errorf("resetting the peak resident set: %w", err)
				}
				err := step()
				rss, rerr := peakRSSMB("/proc/self/status")
				res.e2e["max_rss_mb"] = max(res.e2e["max_rss_mb"], rss)
				return errors.Join(err, rerr)
			}
		}
	}
	var steps []func() error
	for i := 0; i < max(len(serveSteps), len(offSteps)); i++ {
		if i < len(serveSteps) {
			steps = append(steps, serveSteps[i])
		}
		if i < len(offSteps) {
			steps = append(steps, offSteps[i])
		}
	}

	sm := samples{}
	slice := libmTime / time.Duration(len(steps)+1)
	if workload == "libm" {
		// The libm phase's peak resident set, over its first slice: its
		// memory is all allocated at set-up and does not grow.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return fmt.Errorf("resetting the peak resident set: %w", err)
		}
	}
	p.libm.rounds(tr, root.ID(), slice, sm)
	if workload == "libm" {
		rss, err := peakRSSMB("/proc/self/status")
		if err != nil {
			return err
		}
		res.e2e["max_rss_mb"] = rss
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		p.libm.rounds(tr, root.ID(), slice, sm)
	}
	p.libm.report(sm, tr.On(), res)
	if workload == "serve" {
		res.e2e["max_rss_mb"] = p.serve.peakMB
	}
	return nil
}

// checkArgs validates the arguments a run and a set-up child share and
// returns the scratch directory and the offline phase's size.
func checkArgs(workload, serveBin, outDir string) (string, offlineConfig, error) {
	if !slices.Contains(workloads, workload) {
		return "", offlineConfig{}, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloads, ", "))
	}
	if serveBin == "" {
		return "", offlineConfig{}, errors.New("-serve-bin is required")
	}
	scratch := filepath.Join(outDir, "scratch")
	if workload == "offline" {
		return scratch, focusOffline, os.MkdirAll(scratch, 0o755)
	}
	return scratch, probeOffline, os.MkdirAll(scratch, 0o755)
}

// openServerLog opens the file the server's output goes to, for appending:
// a run and its set-up children share it.
func openServerLog(scratch string) (*os.File, error) {
	return os.OpenFile(filepath.Join(scratch, "rlibm-serve.log"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// setUpOnly is a set-up child: it sets every phase up as the run would,
// prints "ready" once set-up is done, then tears down and exits.
func setUpOnly(workload string, seed int64, traced bool, serveBin, outDir string) error {
	scratch, offCfg, err := checkArgs(workload, serveBin, outDir)
	if err != nil {
		return err
	}
	serverLog, err := openServerLog(scratch)
	if err != nil {
		return err
	}
	defer serverLog.Close()
	p, err := setUp(seed, traced, serveBin, scratch, offCfg, serverLog)
	defer p.close()
	if err != nil {
		return err
	}
	_, err = fmt.Println("ready")
	return err
}

// timeSetUp runs setupReps set-up children one after another and returns
// the median time from starting each to its "ready". A fresh process pays
// every one-time cost: loading the program, library init and the bfloat16
// memo tables, which live for the life of a process.
func timeSetUp(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for k := 0; k < setupReps; k++ {
		cmd := exec.Command(exe, append([]string{"-setup-only"}, args...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0).Seconds()
		io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up child printed %q, want \"ready\" (%v)", line, rerr)
		}
		times = append(times, d)
	}
	return measure.Median(times), nil
}

func run(workload string, seed int64, seconds time.Duration, traced bool, serveBin, outDir string) error {
	scratch, offCfg, err := checkArgs(workload, serveBin, outDir)
	if err != nil {
		return err
	}
	fpr := fingerprintOf(workload, seed, seconds, traced)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v, trace %v, %s, %d CPUs, backend %s\n",
		workload, seed, seconds, traced, fpr.CPU, fpr.NumCPU, fpr.Backend)

	if err := os.WriteFile(filepath.Join(scratch, "rlibm-serve.log"), nil, 0o644); err != nil {
		return err
	}
	res := newResult()
	trace := "0"
	if traced {
		trace = "1"
	}
	res.e2e["setup_s"], err = timeSetUp([]string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-serve-bin", serveBin, "-out", outDir})
	if err != nil {
		return err
	}

	serverLog, err := openServerLog(scratch)
	if err != nil {
		return err
	}
	defer serverLog.Close()
	ph, err := setUp(seed, traced, serveBin, scratch, offCfg, serverLog)
	defer ph.close()
	if err != nil {
		return err
	}
	ph.libm.check(res)

	// The hash file is keyed by the build, so the check compares runs of one
	// build and fails only on nondeterminism: a build whose generation
	// changes on purpose records its own hash.
	build, err := buildDigest()
	if err != nil {
		return err
	}
	hashFile := filepath.Join(outDir, fmt.Sprintf("offline-coeffs-%dbit-%s.sha256", offCfg.bits, build))
	tr := measure.NewTracer(traced)
	if traced {
		// The whole schedule runs twice, untraced and then traced: the same
		// work with spans off and on gives the tracing overhead.
		ref := newResult()
		if err := ph.schedule(workload, seed, seconds, true, measure.NewTracer(false), hashFile, ref); err != nil {
			return err
		}
		stop := watchHeap()
		gcBefore := numGC()
		if err := ph.schedule(workload, seed, seconds, true, tr, hashFile, res); err != nil {
			return err
		}
		res.layer["go.heap_peak_mb"] = stop()
		res.layer["go.gc_cycles"] = float64(numGC() - gcBefore)
		// The headline figure of the focus phase, with spans and without.
		head := map[string]func(*result) float64{
			"libm":    func(r *result) float64 { return r.e2e["call_ns"] },
			"serve":   func(r *result) float64 { return r.e2e["small_p50_us"] },
			"offline": func(r *result) float64 { return r.layer["core.gen_s"] },
		}[workload]
		res.layer["trace.overhead_pct"] = (head(res)/head(ref) - 1) * 100
		res.attempted += ref.attempted
		res.failed += ref.failed
		res.gates = append(res.gates, ref.gates...)
	} else if err := ph.schedule(workload, seed, seconds, false, tr, hashFile, res); err != nil {
		return err
	}
	res.layer["fail_ratio"] = ratio(res.failed, res.attempted)
	return report(res, fpr, tr, outDir)
}

// buildDigest identifies this build: the first 16 hex digits of the
// SHA-256 of the running executable, which holds the generator, the LP
// solver and the oracle.
func buildDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func numGC() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return uint64(ms.NumGC)
}

// watchHeap samples the live heap every 10ms until the returned function
// is called, which reports the peak in MB.
func watchHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}

// fingerprint identifies the machine, build and run a result came from.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	GoVersion  string `json:"go_version"`
	Git        string `json:"git"`
	Backend    string `json:"backend"`
}

func fingerprintOf(workload string, seed int64, seconds time.Duration, traced bool) fingerprint {
	f := fingerprint{
		Workload: workload, Seed: seed, Seconds: int(seconds.Seconds()), Trace: traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), Git: obs.GitDescribe(),
	}
	if f.Git == "" {
		f.Git = "unknown (not a git work tree)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				f.GOAMD64 = s.Value
			}
		}
	}
	if e, err := rlibm.New(rlibm.FuncExp, rlibm.EstrinFMA); err == nil {
		f.Backend = e.Backend().String()
	}
	return f
}

func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "ns_per_elem"), strings.HasSuffix(name, ".ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_p50"), strings.HasSuffix(name, "_us_p99"):
		return "us"
	case strings.HasSuffix(name, "_per_s"), strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_per_flush"):
		return "ratio"
	}
	return "count"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report writes the run report and, in traced runs, the spans under
// outDir, prints the fingerprint and every metric, and prints the result
// line last.
func report(res *result, fpr fingerprint, tr *measure.Tracer, outDir string) error {
	vals := res.e2e
	if tr.On() {
		vals = res.layer
	}
	out := output{Correct: len(res.gates) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	names := make([]string, 0, len(vals))
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = metricValue{v, unitOf(name)}
		names = append(names, name)
	}
	sort.Strings(names)

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%v", fpr.Workload, fpr.Seed, fpr.Trace))
	if tr.On() {
		f, err := os.Create(base + ".spans.jsonl")
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		for name, d := range measure.SelfTimes(tr.Spans()) {
			res.note(fmt.Sprintf("self time %s: %.3fs", name, d.Seconds()))
		}
	}
	sort.Strings(res.notes)
	full := struct {
		Fingerprint fingerprint `json:"fingerprint"`
		output
		Gates []string `json:"failed_checks,omitempty"`
		Notes []string `json:"notes,omitempty"`
	}{fpr, out, res.gates, res.notes}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}

	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, g := range res.gates {
		fmt.Fprintln(os.Stderr, "  FAILED CHECK: "+g)
	}
	for _, name := range names {
		fmt.Printf("%-40s %14.6g %s\n", name, vals[name], unitOf(name))
	}
	fj, err := json.Marshal(fpr)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", fj)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
