// Command htdpbench is the end-to-end benchmark of the htdp estimation
// service. It starts serve.New in process on a loopback listener, drives
// one named workload against it from a single client, checks every
// response, and prints the metrics as one JSON object on the last line
// of its output. With --trace 1 it instead times calls into each layer's
// public functions from its own code and reports per-layer numbers; the
// spans go to .bench_out/. README.md documents the workloads and
// metrics; run it through run.sh, which builds it first:
//
//	bash htdpbench/run.sh --workload cold-mem --seed 7 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htdp/internal/data"
	"htdp/internal/experiments"
	"htdp/internal/serve"
)

// outDir holds the spans files; each run's scratch files live in a
// subdirectory that is removed when the run ends.
const outDir = ".bench_out"

// setupRounds is how many times a run sets the service up; setup_s is
// the median.
const setupRounds = 9

// calRefSeconds is the CPU time calibrate takes on the reference
// machine (README.md). setup_s is each round's set-up CPU time scaled
// by calRefSeconds over the calibration time measured around it: the
// set-up's CPU time at the reference speed. A shared host can change
// speed by up to 1.7× for minutes at a time (README.md records such a
// machine), which moves raw CPU times by more than setup_s's bound
// between batches of runs; a change that adds work to set-up still
// moves setup_s in full.
const calRefSeconds = 0.030

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// inject deliberately breaks a check, to show the check can fail:
	// "corrupt-cache" rewrites the disk tier's files mid-run,
	// "wrong-seed" recomputes reference results with another seed.
	inject string
}

// bench is one run of one workload.
type bench struct {
	opt    options
	wl     *workload
	e      *env
	tr     *tracer
	runDir string
	lay    layerStats
	fails  failures
	bodies bodyStore
	// untimed holds the responses sent outside any measured phase.
	// They are checked like the rest, and later hits are checked
	// against their bodies.
	untimed []*result
}

func (b *bench) runTag(traced bool) string {
	if traced {
		return "t"
	}
	return "u"
}

// stream separates the request seeds of the untraced and traced phases.
func (b *bench) stream(traced bool) int {
	if traced {
		return 1000
	}
	return 0
}

// failures collects every failed check with its reason.
type failures struct {
	mu   sync.Mutex
	list []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.list = append(f.list, fmt.Sprintf(format, args...))
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.list)
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&opt.inject, "inject", "", "negative control: corrupt-cache or wrong-seed")
	flag.Parse()
	opt.trace = trace == 1
	wl, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (trace != 0 && trace != 1) ||
		(opt.inject != "" && opt.inject != "corrupt-cache" && opt.inject != "wrong-seed") {
		fmt.Fprintf(os.Stderr, "htdpbench: want --workload one of %s, --seconds > 0, --trace 0|1, --inject corrupt-cache|wrong-seed\n", strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	res, err := run(opt, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htdpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htdpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(opt options, wl *workload) (*output, error) {
	t0 := time.Now()
	b := &bench{opt: opt, wl: wl, tr: newTracer(false, t0)}
	b.lay.init()
	b.runDir = filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(b.runDir)

	// Set-up: build the dataset, write and index its CSV, start the
	// service. Repeated setupRounds times; all but the last are torn
	// down again. A calibration loop runs just before and just after
	// each round, so the round's CPU time can be scaled to the
	// reference speed: see calRefSeconds.
	var setupCPU, setupWall, setupScaled, cal []float64
	for i := 0; i < setupRounds; i++ {
		// Each round starts from a collected heap, so no round pays
		// for collecting the garbage of the one before.
		runtime.GC()
		calBefore := calibrate()
		start, cpu0 := time.Now(), cpuSeconds()
		e, err := newEnv(filepath.Join(b.runDir, fmt.Sprintf("env%d", i)), opt.seed, wl.env)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cpu := cpuSeconds() - cpu0
		setupWall = append(setupWall, time.Since(start).Seconds())
		calAfter := calibrate()
		setupCPU = append(setupCPU, cpu)
		setupScaled = append(setupScaled, cpu*calRefSeconds/((calBefore+calAfter)/2))
		cal = append(cal, calBefore, calAfter)
		if i < setupRounds-1 {
			e.close()
			continue
		}
		b.e = e
	}
	defer b.e.close()
	b.warmup()

	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	dur := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		dur /= 2 // untraced half, then traced half
	}
	if opt.inject == "corrupt-cache" {
		stop := b.corruptCacheAfter(dur / 2)
		defer stop()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	heap := startHeapSampler()
	plain := wl.drive(b, dur, false)
	heapPeak := heap.stop()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	phases := []*phase{plain}

	var traced *phase
	if opt.trace {
		b.tr.on = true
		traced = wl.drive(b, dur, true)
		phases = append(phases, traced)
		phases = append(phases, b.replayProbe(phases))
	}
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	if opt.trace {
		if wl.name == "sweep" {
			b.coreProbe()
		} else {
			b.experimentsProbe()
		}
		b.micro()
	}
	b.tr.on = false
	checked := append(phases, &phase{results: b.untimed})
	b.check(checked, before, after)

	st := summarize(plain)
	attempted := 0
	httpFailed := 0
	for _, ph := range checked {
		for _, r := range ph.results {
			attempted++
			if !r.ok() {
				httpFailed++
				b.fails.add("%s %s: status %d: %v: %s", r.id, r.op.path, r.status, r.err, firstLine(r.body))
			}
		}
	}
	genLate := quantile(plain.genLate, 0.99)
	if wl.rates != nil && genLate > genLateLimitMs {
		b.fails.add("open-loop generator fell behind: p99 lateness of releases into an empty queue %.2f ms > %.0f ms; run invalid", genLate, genLateLimitMs)
	}
	for _, f := range b.fails.list {
		fmt.Fprintln(os.Stderr, "htdpbench: FAIL:", f)
	}
	failed := b.fails.count()
	out := &output{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unit} }

	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  GOMAXPROCS %d  NumCPU %d  %s\n",
		wl.name, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Printf("  %d requests, %d failed checks; tail_ms %.3f is p%.2f of %d samples; heap peak %.1f MB; generator p99 lateness %.3f ms\n",
		st.attempted, failed, st.tailV, st.tailPct, st.tailN, heapPeak/1e6, genLate)
	printKinds(plain)
	if wl.rates != nil {
		fmt.Printf("    generator p99 lateness over every release %.3f ms\n", quantile(plain.lateAll, 0.99))
	}
	printSteps(plain, wl.tailLimitMs)

	ops := float64(max(st.attempted, 1))
	if !opt.trace {
		put("setup_s", "s", median(setupScaled))
		put("alloc_mb_per_op", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/ops)
		put("allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/ops)
	} else {
		// Time spent per request, whether on the wall clock or the
		// CPU, does not repeat across runs within a tenth on a host
		// whose other tenants slow its CPUs for seconds at a time, so
		// these are reported here, from the untraced half.
		put("cpu_ms_per_op", "ms", (cpu1-cpu0)*1e3/ops)
		put("setup_wall_s", "s", median(setupWall))
		put("setup_cpu_s", "s", median(setupCPU))
		put("host.speed", "ratio", calRefSeconds/median(cal))
		put("throughput_rps", "1/s", st.throughput)
		put("p50_ms", "ms", st.p50)
		put("tail_ms", "ms", st.tailV)
		put("heap_peak_mb", "MB", heapPeak/1e6)
		b.layerMetrics(put, plain, traced, phases, st, genLate, attempted, httpFailed)
		path := spansPath(outDir, wl.name, opt.seed)
		if err := b.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("  spans written to %s (%d kept, %d beyond the cap)\n", path, len(b.tr.spans), b.tr.dropped)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", n)
		}
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return out, nil
}

// genLateLimitMs is the p99 lateness of releases into an empty queue
// (see openLoop) beyond which the open-loop generator counts as having
// fallen behind its schedule. Latency is timed from the due time either
// way; a generator this late has also stopped offering the scheduled
// load, so the run is invalid. The limit sits above the Go scheduler's
// 10 ms preemption slice, which a timer wake-up can wait behind when
// both cores are computing.
const genLateLimitMs = 20.0

// printKinds prints the request count and median latency of each
// (kind, dataset) pair of a phase.
func printKinds(ph *phase) {
	lat := map[string][]float64{}
	size := map[string]int{}
	tiers := map[string]int{}
	for _, r := range ph.results {
		k := r.op.kind + "/" + r.op.dataset
		lat[k] = append(lat[k], r.latencyMs())
		size[k] = len(r.body)
		tiers[r.tier]++
	}
	fmt.Printf("    tiers: %d hit, %d disk, %d miss, %d coalesced\n", tiers["hit"], tiers["disk"], tiers["miss"], tiers["coalesced"])
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("    %-22s %5d requests  p50 %10.3f ms  %6d B body\n", k, len(lat[k]), median(lat[k]), size[k])
	}
}

// printSteps prints how each open-loop rate step fared against the
// tail limit.
func printSteps(ph *phase, limitMs float64) {
	for _, s := range rateSteps(ph, limitMs) {
		verdict := "meets the limit"
		if !s.met {
			verdict = "misses: " + s.reason
		}
		fmt.Printf("    step %6.0f req/s  %5d requests  p50 %8.3f ms  tail %8.3f ms  %s (limit %.0f ms)\n",
			s.rate, s.n, s.p50, s.tail, verdict, limitMs)
	}
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// warmup sends a few untimed requests so connection set-up and first
// use of each code path fall outside the measurement.
func (b *bench) warmup() {
	if b.wl.name == "sweep" {
		q := experiments.SweepRequest{Experiment: "fig5", Reps: sweepReps, Scale: sweepScale, Seed: requestSeed(b.opt.seed, 500, 0)}
		b.send(sweepOp(q, tenantTokens[0]), "warmup", b.tr.now(), false)
		return
	}
	for i, algo := range algos {
		q := serve.RunRequest{Dataset: "mem", Algo: algo, Seed: requestSeed(b.opt.seed, 500, i)}
		b.send(runOp(q, tenantTokens[0]), "warmup", b.tr.now(), false)
	}
}

// heapSampler tracks the peak of live heap objects while a phase runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = math.Max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// layerStats gathers the traced run's per-layer observations.
type layerStats struct {
	mu          sync.Mutex
	coreSelfMs  map[string][]float64 // per algo
	coreChunks  map[string][]float64 // per algo
	dataChunkMs map[string][]float64 // per backend, per run
	dataRowatMs map[string][]float64
	dataRows    map[string][]float64
	ownDataNs   int64 // data busy inside ExecuteRun on the workload's datasets
	ownSpanNs   int64 // the ExecuteRun spans around it
	overheadMs  []float64
	sweepMs     map[string][]float64 // per experiment
	sourceOpens atomic.Int64
	trials      int64
	micro       map[string]metric
}

func (l *layerStats) init() {
	l.coreSelfMs = map[string][]float64{}
	l.coreChunks = map[string][]float64{}
	l.dataChunkMs = map[string][]float64{}
	l.dataRowatMs = map[string][]float64{}
	l.dataRows = map[string][]float64{}
	l.sweepMs = map[string][]float64{}
	l.micro = map[string]metric{}
}

// backends are the pool entries holding the same rows; every direct run
// is repeated over each.
var backends = []string{"mem", "csv", "gen"}

// directRun calls serve.ExecuteRun over a timed handle of one pooled
// backend, as a "core" span whose children are the data calls.
func (b *bench) directRun(q serve.RunRequest, backend, req string) ([]byte, *timedSource, int64, error) {
	src, err := b.e.pool.Acquire(backend)
	if err != nil {
		return nil, nil, 0, err
	}
	ts := &timedSource{src: src, tr: b.tr, parent: b.tr.id(), req: req}
	defer ts.Close()
	start := b.tr.now()
	res, err := serve.ExecuteRun(context.Background(), ts, q)
	end := b.tr.now()
	b.tr.add(span{ID: ts.parent, Name: "serve.ExecuteRun " + q.Algo + "/" + backend, Layer: "core", Req: req, Start: start, End: end}, ts.busyNs())
	if err != nil {
		return nil, ts, end - start, err
	}
	body, err := json.Marshal(res)
	return append(body, '\n'), ts, end - start, err
}

// recordRun files one direct run under its algo and backend.
func (b *bench) recordRun(algo, backend string, ts *timedSource, spanNs int64) {
	l := &b.lay
	l.mu.Lock()
	defer l.mu.Unlock()
	l.coreSelfMs[algo] = append(l.coreSelfMs[algo], float64(spanNs-ts.busyNs())/1e6)
	l.coreChunks[algo] = append(l.coreChunks[algo], float64(ts.chunks))
	l.dataChunkMs[backend] = append(l.dataChunkMs[backend], float64(ts.chunkNs)/1e6)
	l.dataRowatMs[backend] = append(l.dataRowatMs[backend], float64(ts.rowatNs)/1e6)
	l.dataRows[backend] = append(l.dataRows[backend], float64(ts.rows))
	for _, d := range b.wl.datasets {
		if d == backend {
			l.ownDataNs += ts.busyNs()
			l.ownSpanNs += spanNs
		}
	}
}

// afterRun is the traced hook of the /v1/run workloads: the first and
// then every directEvery-th miss of each (algo, dataset) pair is
// repeated as direct ExecuteRun calls over each backend, whose bytes
// must equal the response.
func (b *bench) afterRun(traced bool) func(*result) {
	if !traced {
		return nil
	}
	var mu sync.Mutex
	misses := map[string]int{}
	return func(r *result) {
		if !r.ok() || r.tier != "miss" {
			return
		}
		mu.Lock()
		k := r.op.kind + "/" + r.op.dataset
		n := misses[k]
		misses[k]++
		mu.Unlock()
		if n%b.wl.directEvery != 0 {
			return
		}
		for _, backend := range backends {
			body, ts, spanNs, err := b.directRun(*r.op.run, backend, r.id)
			if err != nil {
				b.fails.add("%s: direct ExecuteRun over %s: %v", r.id, backend, err)
				continue
			}
			if string(body) != string(r.body) {
				b.fails.add("%s: direct ExecuteRun over %s differs from the response", r.id, backend)
			}
			b.recordRun(r.op.run.Algo, backend, ts, spanNs)
			if backend == r.op.dataset {
				b.lay.mu.Lock()
				b.lay.overheadMs = append(b.lay.overheadMs, float64(r.end-r.start-spanNs)/1e6)
				b.lay.mu.Unlock()
			}
		}
	}
}

// directSweep calls experiments.RunSweep with a counting, timed source
// factory over the pooled CSV, as an "experiments" span.
func (b *bench) directSweep(q experiments.SweepRequest, req string) ([]byte, int64, error) {
	id := b.tr.id()
	var mu sync.Mutex
	var opened []*timedSource
	var open func(int64) (data.Source, error)
	if q.Dataset != "" {
		open = func(int64) (data.Source, error) {
			b.lay.sourceOpens.Add(1)
			src, err := b.e.pool.Acquire(q.Dataset)
			if err != nil {
				return nil, err
			}
			ts := &timedSource{src: src, tr: b.tr, parent: id, req: req}
			mu.Lock()
			opened = append(opened, ts)
			mu.Unlock()
			return ts, nil
		}
	}
	start := b.tr.now()
	panels, err := experiments.RunSweep(context.Background(), q, open)
	end := b.tr.now()
	var busy int64
	for _, ts := range opened {
		busy += ts.busyNs()
	}
	b.tr.add(span{ID: id, Name: "experiments.RunSweep " + q.Experiment, Layer: "experiments", Req: req, Start: start, End: end}, busy)
	if err != nil {
		return nil, end - start, err
	}
	trials := 0
	for _, p := range panels {
		for _, s := range p.Series {
			trials += len(s.X) * q.Reps
		}
	}
	b.lay.mu.Lock()
	b.lay.sweepMs[q.Experiment] = append(b.lay.sweepMs[q.Experiment], float64(end-start)/1e6)
	b.lay.trials += int64(trials)
	b.lay.mu.Unlock()
	body, err := marshalSweep(q.Experiment, panels)
	return body, end - start, err
}

// marshalSweep encodes a sweep result exactly as POST /v1/sweep does.
func marshalSweep(id string, panels []experiments.Panel) ([]byte, error) {
	body, err := json.Marshal(struct {
		Experiment string              `json:"experiment"`
		Panels     []experiments.Panel `json:"panels"`
	}{Experiment: id, Panels: panels})
	return append(body, '\n'), err
}

// afterSweep is the traced hook of the sweep workload: every sweep is
// repeated as a direct RunSweep call whose bytes must equal the
// response.
func (b *bench) afterSweep(traced bool) func(*result) {
	if !traced {
		return nil
	}
	return func(r *result) {
		if !r.ok() {
			return
		}
		body, spanNs, err := b.directSweep(*r.op.sweep, r.id)
		if err != nil {
			b.fails.add("%s: direct RunSweep: %v", r.id, err)
			return
		}
		if string(body) != string(r.body) {
			b.fails.add("%s: direct RunSweep differs from the response", r.id)
		}
		b.lay.mu.Lock()
		b.lay.overheadMs = append(b.lay.overheadMs, float64(r.end-r.start-spanNs)/1e6)
		b.lay.mu.Unlock()
	}
}

// replayProbe re-sends answered requests — first the newest, still in
// the memory tier, then the oldest, which it has evicted to the disk
// tier — so every workload reports the hit and disk-hit paths.
func (b *bench) replayProbe(phases []*phase) *phase {
	var seen []*result
	keys := map[string]bool{}
	for _, ph := range phases {
		for _, r := range ph.results {
			if r.ok() && !keys[r.op.key()] {
				keys[r.op.key()] = true
				seen = append(seen, r)
			}
		}
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].end < seen[j].end })
	// Newest first, so the memory tier answers before disk hits promote
	// older entries into it.
	const each = 30
	newest := min(each, len(seen))
	var picks []*result
	for i := len(seen) - 1; i >= len(seen)-newest; i-- {
		picks = append(picks, seen[i])
	}
	picks = append(picks, seen[:min(each, len(seen)-newest)]...)
	ph := &phase{}
	begin := b.tr.now()
	for i, r := range picks {
		due := b.tr.now()
		ph.results = append(ph.results, b.send(r.op, fmt.Sprintf("replay-%d", i), due, true))
	}
	ph.elapsed = time.Duration(b.tr.now() - begin)
	return ph
}

// coreProbe gives the sweep workload, which sends no /v1/run traffic,
// its core and data numbers: one direct run per algo over each backend.
func (b *bench) coreProbe() {
	for i, algo := range algos {
		q := serve.RunRequest{Dataset: b.wl.datasets[0], Algo: algo, Seed: requestSeed(b.opt.seed, 2000, i)}
		if algo == "dpsgd" {
			q.T, q.Batch = b.wl.dpsgdT, b.wl.dpsgdBatch
		}
		var ref []byte
		for _, backend := range backends {
			req := fmt.Sprintf("probe-%s", algo)
			body, ts, spanNs, err := b.directRun(q, backend, req)
			if err != nil {
				b.fails.add("%s: direct ExecuteRun over %s: %v", req, backend, err)
				continue
			}
			if ref == nil {
				ref = body
			} else if string(body) != string(ref) {
				b.fails.add("%s: ExecuteRun over %s differs from mem", req, backend)
			}
			b.recordRun(algo, backend, ts, spanNs)
		}
	}
}

// experimentsProbe gives the /v1/run workloads their experiments
// numbers: one direct pass over the sweep subset.
func (b *bench) experimentsProbe() {
	next, cycle := sweepOps(b.opt.seed, 3000)
	for k := 0; k < cycle; k++ {
		o := next(0, k)
		if _, _, err := b.directSweep(*o.sweep, fmt.Sprintf("probe-%s", o.kind)); err != nil {
			b.fails.add("probe %s: direct RunSweep: %v", o.kind, err)
		}
	}
}
