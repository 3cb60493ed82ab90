package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"htdp/internal/experiments"
	"htdp/internal/serve"
)

// algos is the request mix of every /v1/run workload: the paper's four
// algorithms plus DPSGD, in a fixed order.
var algos = []string{"fw", "lasso", "iht", "sparseopt", "dpsgd"}

// op is one request a workload sends.
type op struct {
	path    string // "/v1/run" or "/v1/sweep"
	token   string
	body    []byte
	run     *serve.RunRequest
	sweep   *experiments.SweepRequest
	kind    string        // algo or experiment id
	dataset string        // pooled dataset the request reads
	due     time.Duration // open loop: send time after the schedule start
	phase   int           // open loop: index of the rate step
	k       string        // path and body: see key
}

// key identifies the request's result: equal keys must get equal bytes.
func (o *op) key() string { return o.k }

func runOp(q serve.RunRequest, token string) *op {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // unreachable: RunRequest marshals by construction
	}
	return &op{path: "/v1/run", token: token, body: b, run: &q, kind: q.Algo, dataset: q.Dataset, k: "/v1/run " + string(b)}
}

func sweepOp(q experiments.SweepRequest, token string) *op {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // unreachable: SweepRequest marshals by construction
	}
	return &op{path: "/v1/sweep", token: token, body: b, sweep: &q, kind: q.Experiment, dataset: q.Dataset, k: "/v1/sweep " + string(b)}
}

// result is one finished op. Times are nanoseconds since the run began;
// due is when the request should have been sent (open loop: its
// scheduled time; closed loop: when the client became free).
type result struct {
	op              *op
	id              string
	due, start, end int64
	reply
}

func (r *result) ok() bool { return r.err == nil && r.status == 200 }

// latencyMs is the request's latency, timed from its due time.
func (r *result) latencyMs() float64 { return float64(r.end-r.due) / 1e6 }

// send performs one op and times it.
func (b *bench) send(o *op, id string, due int64, traced bool) *result {
	start := b.tr.now()
	rep := b.e.post(o.path, o.token, id, o.body)
	end := b.tr.now()
	rep.body = b.bodies.intern(o.key(), rep.body)
	if traced {
		b.tr.add(span{ID: b.tr.id(), Name: "http POST " + o.path, Layer: "http", Req: id, Start: start, End: end}, 0)
	}
	return &result{op: o, id: id, due: due, start: start, end: end, reply: rep}
}

// bodyStore keeps one copy of each distinct response body per key, so
// the many hits of a long open-loop run share their bytes. A body that
// differs from those seen before is kept as its own copy: the checks
// still compare every response's bytes.
type bodyStore struct {
	mu sync.Mutex
	m  map[string][][]byte
}

func (s *bodyStore) intern(key string, body []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string][][]byte{}
	}
	for _, seen := range s.m[key] {
		if bytes.Equal(seen, body) {
			return seen
		}
	}
	s.m[key] = append(s.m[key], body)
	return body
}

// phase is one measured stretch of load.
type phase struct {
	results []*result
	elapsed time.Duration // first send to last completion
	genLate []float64     // how late requests left the generator, ms: see openLoop
	lateAll []float64     // open loop: how late every request left it, ms
	rates   []float64     // open loop: offered rate of each step
	stepDur time.Duration
	probeNs atomic.Int64 // time the clients spent in direct layer calls
}

// probe runs the traced hook after r returned and adds its time to the
// phase.
func (ph *phase) probe(b *bench, after func(*result), r *result) {
	if after == nil {
		return
	}
	start := b.tr.now()
	after(r)
	ph.probeNs.Add(b.tr.now() - start)
}

// closedLoop runs clients that each send their next request as soon as
// the previous one returned. A client starts a new cycle of `cycle`
// requests only while dur has not elapsed, so every run measures whole
// cycles of the request mix. after runs on the client's goroutine once
// a request returned (the traced run times direct layer calls there).
func (b *bench) closedLoop(clients, cycle int, dur time.Duration, traced bool, next func(c, k int) *op, after func(r *result)) *phase {
	var mu sync.Mutex
	ph := &phase{}
	var wg sync.WaitGroup
	begin := b.tr.now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			free := b.tr.now()
			for k := 0; ; k++ {
				if k%cycle == 0 && time.Duration(b.tr.now()-begin) >= dur {
					return
				}
				o := next(c, k)
				r := b.send(o, fmt.Sprintf("%s-c%d-k%d", b.runTag(traced), c, k), free, traced)
				ph.probe(b, after, r)
				mu.Lock()
				ph.results = append(ph.results, r)
				ph.genLate = append(ph.genLate, float64(r.start-r.due)/1e6)
				mu.Unlock()
				free = b.tr.now()
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Duration(lastEnd(ph.results) - begin)
	return ph
}

func lastEnd(rs []*result) int64 {
	var last int64
	for _, r := range rs {
		last = max(last, r.end)
	}
	return last
}

// openLoop sends a precomputed schedule: a generator releases each op
// at its due time whatever is still outstanding, and conns senders —
// one per client connection — take released ops in order. Latency is
// timed from the due time, so a stall also charges the requests that
// queued behind it. genLate records the release lateness of the ops
// that found no released op still queued: only their lateness can
// delay a send. An op released into a queue waits behind it however
// punctual its release, as it does at rates above capacity.
func (b *bench) openLoop(conns int, sched []*op, traced bool, after func(r *result)) *phase {
	ph := &phase{lateAll: make([]float64, 0, len(sched))}
	base := b.tr.now() + int64(20*time.Millisecond)
	ready := make(chan int, len(sched)) // sized to the schedule: the generator never blocks
	go func() {
		defer close(ready)
		for i, o := range sched {
			due := base + int64(o.due)
			if wait := due - b.tr.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			late := float64(b.tr.now()-due) / 1e6
			ph.lateAll = append(ph.lateAll, late)
			if len(ready) == 0 {
				ph.genLate = append(ph.genLate, late)
			}
			ready <- i
		}
	}()
	out := make([]*result, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				o := sched[i]
				r := b.send(o, fmt.Sprintf("%s-o%d", b.runTag(traced), i), base+int64(o.due), traced)
				ph.probe(b, after, r)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	ph.results = out
	ph.elapsed = time.Duration(lastEnd(out) - base)
	return ph
}

// prime sends each op once over conns connections before a phase is
// timed, so the phase starts from a store that already holds its key
// set. The responses are checked with the rest.
func (b *bench) prime(conns int, ops []*op) {
	out := make([]*result, len(ops))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = b.send(ops[i], fmt.Sprintf("prime-%d-%d", len(b.untimed), i), b.tr.now(), false)
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	b.untimed = append(b.untimed, out...)
}

// requestSeed derives a fresh, nonzero request seed from the workload
// seed and a stream position (SplitMix64 finalizer).
func requestSeed(seed int64, stream, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) | 1
}

// coldOps cycles each client through every (algo, dataset) pair with a
// fresh seed per request, so every request misses the result store.
// The two clients start half a cycle apart. Each request runs on one
// worker: the two clients already keep two cores busy.
func coldOps(seed int64, stream int, wl *workload) (next func(c, k int) *op, cycle int) {
	datasets := wl.datasets
	cycle = len(algos) * len(datasets)
	next = func(c, k int) *op {
		i := (k + c*cycle/2) % cycle
		q := serve.RunRequest{Dataset: datasets[i/len(algos)], Algo: algos[i%len(algos)], Seed: requestSeed(seed, stream+c, k), Parallelism: 1}
		if q.Algo == "dpsgd" {
			q.T, q.Batch = wl.dpsgdT, wl.dpsgdBatch
		}
		return runOp(q, tenantTokens[c%len(tenantTokens)])
	}
	return next, cycle
}

// hotSchedule draws an open-loop schedule: Poisson arrivals at each
// rate in turn, stepDur per rate, from two tenants, over a bounded key
// set drawn by a Zipf law — so most requests repeat a key the store
// already holds. Key i is a cheap run: algo i mod 5 over the "mem"
// dataset with iteration count hotT and a seed fixed per key. A share
// hotFresh of the requests get a key of their own instead. warm lists
// one request per bounded key drawn, in first-draw order.
func hotSchedule(seed int64, stream int, rates []float64, stepDur time.Duration, keys int) (sched, warm []*op) {
	rng := rand.New(rand.NewSource(requestSeed(seed, stream, 0)))
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(keys-1))
	// Requests for one key share its body, so a long schedule stays small.
	byKey := map[int]*op{}
	for p, rate := range rates {
		t0 := time.Duration(p) * stepDur
		t := t0
		for {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= t0+stepDur {
				break
			}
			i := int(zipf.Uint64())
			var o op
			if rng.Float64() < hotFresh {
				// A miss that writes a new entry.
				q := serve.RunRequest{Dataset: "mem", Algo: algos[i%len(algos)], T: hotT, Seed: requestSeed(seed, stream+1<<21, len(sched))}
				o = *runOp(q, "")
			} else {
				tmpl := byKey[i]
				if tmpl == nil {
					q := serve.RunRequest{Dataset: "mem", Algo: algos[i%len(algos)], T: hotT, Seed: requestSeed(seed, 1<<20, i)}
					tmpl = runOp(q, tenantTokens[0])
					byKey[i] = tmpl
					warm = append(warm, tmpl)
				}
				o = *tmpl
			}
			o.token = tenantTokens[rng.Intn(len(tenantTokens))]
			o.due, o.phase = t, p
			sched = append(sched, &o)
		}
	}
	return sched, warm
}

// sweepIDs is the sweep workload's registry subset: figures 1, 5, 7
// and 10, plus the source-streaming experiments over the pooled CSV.
var sweepIDs = []string{"fig1", "fig5", "fig7", "fig10", "streaming", "dpsgd"}

// sweepOps cycles through sweepIDs with a fresh seed per sweep.
func sweepOps(seed int64, stream int) (next func(c, k int) *op, cycle int) {
	next = func(c, k int) *op {
		id := sweepIDs[k%len(sweepIDs)]
		q := experiments.SweepRequest{Experiment: id, Reps: sweepReps, Scale: sweepScale, Seed: requestSeed(seed, stream+c, k)}
		if spec, err := experiments.Lookup(id); err == nil && spec.UsesSource {
			q.Dataset = "csv"
		}
		return sweepOp(q, tenantTokens[0])
	}
	return next, len(sweepIDs)
}

// phaseStats summarises a phase for the end-to-end metrics.
type phaseStats struct {
	attempted, failed int
	throughput        float64 // successful ops per second
	p50, tailV        float64 // ms
	tailPct           float64
	tailN             int
}

func summarize(ph *phase) phaseStats {
	var st phaseStats
	var lat []float64
	for _, r := range ph.results {
		st.attempted++
		if !r.ok() {
			st.failed++
			continue
		}
		lat = append(lat, r.latencyMs())
	}
	if ph.elapsed > 0 {
		st.throughput = float64(len(lat)) / ph.elapsed.Seconds()
	}
	st.p50 = median(lat)
	st.tailV, st.tailPct, st.tailN = tail(lat)
	return st
}

// stepResult is how one open-loop rate step fared against the tail
// limit.
type stepResult struct {
	rate         float64
	n, failed    int
	p50, tail    float64 // ms, timed from the due time
	mid, backlog int     // second-half requests, and those over the limit
	met          bool
	reason       string // why the step missed the limit
}

// rateSteps judges each step of an open-loop phase against limitMs: a
// step meets it when no request failed, its tail is within the limit,
// and at most a tenth of the requests due in its second half waited
// longer than the limit — more would mark a queue that kept growing.
func rateSteps(ph *phase, limitMs float64) []stepResult {
	if ph.rates == nil {
		return nil // a closed loop has no rate steps
	}
	steps := make([]stepResult, len(ph.rates))
	lat := make([][]float64, len(ph.rates))
	for i := range steps {
		steps[i].rate = ph.rates[i]
	}
	for _, r := range ph.results {
		p := r.op.phase
		s := &steps[p]
		s.n++
		if !r.ok() {
			s.failed++
		}
		l := r.latencyMs()
		lat[p] = append(lat[p], l)
		mid := time.Duration(p)*ph.stepDur + ph.stepDur/2
		if r.op.due > mid {
			s.mid++
			if l > limitMs {
				s.backlog++
			}
		}
	}
	for i := range steps {
		s := &steps[i]
		s.p50 = median(lat[i])
		s.tail, _, _ = tail(lat[i])
		switch {
		case s.n == 0:
			s.reason = "no requests"
		case s.failed > 0:
			s.reason = fmt.Sprintf("%d failed", s.failed)
		case s.backlog > s.mid/10:
			s.reason = fmt.Sprintf("backlog: %d of %d second-half requests over the limit", s.backlog, s.mid)
		case s.tail > limitMs:
			s.reason = fmt.Sprintf("tail %.1f ms over the limit", s.tail)
		default:
			s.met = true
		}
	}
	return steps
}

// maxRate is the highest offered rate whose step met the tail limit,
// and whether the top step met it — the ladder's ceiling was reached
// and the rate is only a lower bound on capacity. A step above
// capacity leaves a backlog that fails the steps after it too. A
// closed loop has one step: its own throughput, which meets the limit
// or not.
func maxRate(ph *phase, limitMs float64) (best float64, ceiling bool) {
	if ph.rates == nil {
		st := summarize(ph)
		if st.failed == 0 && st.tailV <= limitMs {
			return st.throughput, false
		}
		return 0, false
	}
	for _, s := range rateSteps(ph, limitMs) {
		ceiling = s.met
		if s.met {
			best = s.rate
		}
	}
	return best, ceiling
}
