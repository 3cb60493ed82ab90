package main

import (
	"time"
)

// Sizes of the workloads. Each is chosen so that a run measures many
// requests in a few seconds on a 2-core machine; README.md records why
// each workload exists.
const (
	// hotT is the iteration count of every hot-mixed key: misses stay
	// cheap, so the serving layer dominates.
	hotT = 4
	// hotKeys bounds hot-mixed's key set.
	hotKeys = 1000
	// hotFresh is the share of hot-mixed requests that get a key of
	// their own, so every rate step has misses writing new entries
	// beside the hits.
	hotFresh = 0.02
	// sweepReps and sweepScale shrink the sweep subset to about two
	// seconds per pass over all six sweeps.
	sweepReps  = 1
	sweepScale = 0.01
)

// workload is one named traffic mix.
type workload struct {
	name string
	env  envConfig
	// datasets are the pooled datasets the workload's requests read;
	// the traced run reports the data layer's share of ExecuteRun on
	// them as data.share.
	datasets []string
	// tailLimitMs is the latency limit max_rate_rps is judged against.
	tailLimitMs float64
	// directEvery: the traced run repeats the first and then every
	// directEvery-th miss of each (algo, dataset) pair as direct
	// ExecuteRun calls over each backend.
	directEvery int
	// dpsgdT and dpsgdBatch override the dpsgd requests' iteration count
	// and minibatch size (0 = the service defaults).
	dpsgdT, dpsgdBatch int
	// rates are hot-mixed's offered request rates, one step each.
	rates []float64
	// drive runs one measured phase of dur; traced phases time direct
	// layer calls too.
	drive func(b *bench, dur time.Duration, traced bool) *phase
}

var workloads = map[string]*workload{
	"cold-mem": {
		name:        "cold-mem",
		env:         envConfig{n: 2000, d: 100, memCache: 32 << 10, conns: 2},
		datasets:    []string{"mem"},
		tailLimitMs: 200,
		directEvery: 4,
		drive:       driveCold,
	},
	"cold-stream": {
		name:        "cold-stream",
		env:         envConfig{n: 2560, d: 30, memCache: 16 << 10, conns: 2},
		datasets:    []string{"csv", "gen"},
		dpsgdT:      50,
		dpsgdBatch:  16,
		tailLimitMs: 2000,
		directEvery: 6,
		drive:       driveCold,
	},
	"hot-mixed": {
		name:        "hot-mixed",
		env:         envConfig{n: 1000, d: 20, memCache: 256 << 10, conns: 2},
		datasets:    []string{"mem"},
		tailLimitMs: 50,
		directEvery: 40,
		rates:       []float64{2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000},
		drive: func(b *bench, dur time.Duration, traced bool) *phase {
			rates := b.wl.rates
			step := dur / time.Duration(len(rates))
			sched, warm := hotSchedule(b.opt.seed, b.stream(traced), rates, step, hotKeys)
			b.prime(2, warm)
			ph := b.openLoop(2, sched, traced, b.afterRun(traced))
			ph.rates, ph.stepDur = rates, step
			return ph
		},
	},
	"sweep": {
		name:        "sweep",
		env:         envConfig{n: 2560, d: 30, memCache: 8 << 10, conns: 1},
		dpsgdT:      50,
		dpsgdBatch:  16,
		datasets:    []string{"csv"},
		tailLimitMs: 5000,
		drive: func(b *bench, dur time.Duration, traced bool) *phase {
			next, cycle := sweepOps(b.opt.seed, b.stream(traced))
			return b.closedLoop(1, cycle, dur, traced, next, b.afterSweep(traced))
		},
	},
}

// driveCold runs the closed loop of the cold-* workloads: two clients,
// each its own connection.
func driveCold(b *bench, dur time.Duration, traced bool) *phase {
	next, cycle := coldOps(b.opt.seed, b.stream(traced), b.wl)
	return b.closedLoop(2, cycle, dur, traced, next, b.afterRun(traced))
}

// workloadOrder lists the workloads in the order README.md and
// BENCHMARK.json give them.
var workloadOrder = []string{"cold-mem", "cold-stream", "hot-mixed", "sweep"}
