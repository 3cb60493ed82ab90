package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// Layer microbenchmarks, run in the traced run against the layers'
// public functions. Each kernel is timed at one worker and at
// GOMAXPROCS workers; its operation count and the bytes it moves are
// computed from its shape, not measured.

const (
	kernelRows, kernelCols = 1000, 500 // robust and vecmath chunk
	selectDim, peelS       = 10000, 50 // peeling and exponential mechanism
	microRows, microCols   = 6000, 20  // data backends: > 8 × 256 cached CSV rows
	microRowAt             = 500       // shuffled CSV RowAt calls per pass
	batchTarget            = 25 * time.Millisecond
	batches                = 5
)

// timeKernel runs f in batches of about batchTarget and returns the
// median ns per call.
func (b *bench) timeKernel(name string, f func()) float64 {
	f() // warm workspaces
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(start); el >= batchTarget/4 {
			n = max(1, int(float64(n)*float64(batchTarget)/float64(el)))
			break
		}
		n *= 4
	}
	per := make([]float64, batches)
	for i := range per {
		start := b.tr.now()
		for j := 0; j < n; j++ {
			f()
		}
		end := b.tr.now()
		b.tr.add(span{ID: b.tr.id(), Name: name, Layer: "kernels", Req: "micro", Start: start, End: end}, 0)
		per[i] = float64(end-start) / float64(n)
	}
	return median(per)
}

func (b *bench) putMicro(name, unit string, v float64) {
	b.lay.micro[name] = metric{Value: v, Unit: unit}
}

// kernel records one kernel at both worker settings with its computed
// operation count and bytes moved per call.
func (b *bench) kernel(name string, ops, bytes float64, at func(workers int) func()) {
	pmax := runtime.GOMAXPROCS(0)
	b.putMicro(name+"_ns.p1", "ns", b.timeKernel(name+"/p1", at(1)))
	b.putMicro(name+"_ns.pmax", "ns", b.timeKernel(fmt.Sprintf("%s/p%d", name, pmax), at(pmax)))
	b.putMicro(name+".ops", "count", ops)
	b.putMicro(name+".bytes", "B", bytes)
}

func (b *bench) micro() {
	r := randx.New(b.opt.seed)
	m, d := kernelRows, kernelCols
	x := vecmath.NewMat(m, d)
	for i := range x.Data {
		x.Data[i] = r.StudentT(3)
	}
	y := r.NormalVec(make([]float64, m), 1)
	w := data.L1UnitWStar(r, d)
	md := float64(m * d)

	// Margins X·w, per-sample scales, then the fused truncated-mean
	// estimate: X is streamed twice, one Catoni term per entry.
	b.kernel("robust.estimate_chunk", md, 2*8*md, func(workers int) func() {
		e := robust.MeanEstimator{S: 20, Beta: 1, Parallelism: workers}
		ws := robust.NewWorkspace()
		dst := make([]float64, d)
		return func() {
			margins := ws.Margins(m)
			ws.Mat.MatVec(margins, x, w, workers)
			scales := ws.Scales(m)
			loss.ScalesFromMargins(loss.Squared{}, scales, margins, y)
			e.EstimateChunk(dst, x, scales, 0, nil, ws)
		}
	})
	b.kernel("vecmath.matvec", 2*md, 8*(md+float64(m+d)), func(workers int) func() {
		var ws vecmath.MatWorkspace
		dst := make([]float64, m)
		return func() { ws.MatVec(dst, x, w, workers) }
	})
	b.kernel("vecmath.mattvec", 2*md, 8*(md+float64(m+d)), func(workers int) func() {
		var ws vecmath.MatWorkspace
		dst := make([]float64, d)
		return func() { ws.MatTVec(dst, x, y, workers) }
	})
	v := r.NormalVec(make([]float64, selectDim), 1)
	// s rounds, each a noisy argmax over the coordinates.
	b.kernel("core.peeling", float64(peelS*selectDim), float64(8*peelS*selectDim), func(workers int) func() {
		rng := randx.New(b.opt.seed + 1)
		return func() { core.PeelingP(rng, v, peelS, 1, 1e-5, 0.01, workers) }
	})
	// Two scores (±radius·eⱼ) and two Gumbel draws per coordinate. The
	// mechanism is sequential: at GOMAXPROCS workers it is timed as that
	// many concurrent calls, per call.
	b.kernel("dp.expmech_l1", float64(2*selectDim), float64(2*8*selectDim), func(workers int) func() {
		rngs := make([]*randx.RNG, workers)
		for i := range rngs {
			rngs[i] = randx.New(b.opt.seed + 2 + int64(i))
		}
		if workers == 1 {
			return func() { dp.ExponentialL1Ball(rngs[0], v, 1, 0.01, 1) }
		}
		return func() {
			var wg sync.WaitGroup
			for i := range rngs {
				wg.Add(1)
				go func(rng *randx.RNG) {
					defer wg.Done()
					dp.ExponentialL1Ball(rng, v, 1, 0.01, 1)
				}(rngs[i])
			}
			wg.Wait()
		}
	})
	// The concurrent form does `workers` calls per timed call.
	if p := b.lay.micro["dp.expmech_l1_ns.pmax"]; runtime.GOMAXPROCS(0) > 1 {
		p.Value /= float64(runtime.GOMAXPROCS(0))
		b.lay.micro["dp.expmech_l1_ns.pmax"] = p
	}

	if err := b.dataMicro(); err != nil {
		b.fails.add("data microbenchmarks: %v", err)
	}
}

// passRate streams every chunk of src once per pass, summing every
// value, and returns the median rows per second over the passes and the
// checksum, which must agree across backends holding the same rows.
func (b *bench) passRate(name string, src data.Source, T int) (float64, float64, error) {
	var rates []float64
	var sum float64
	for pass := 0; pass < 3; pass++ {
		sum = 0
		start := b.tr.now()
		for t := 0; t < T; t++ {
			ck, err := src.Chunk(t, T)
			if err != nil {
				return 0, 0, err
			}
			for _, v := range ck.X.Data {
				sum += v
			}
			for _, v := range ck.Y {
				sum += v
			}
		}
		end := b.tr.now()
		b.tr.add(span{ID: b.tr.id(), Name: name, Layer: "data", Req: "micro", Start: start, End: end}, 0)
		rates = append(rates, float64(src.N())/(float64(end-start)/1e9))
	}
	return median(rates), sum, nil
}

func (b *bench) dataMicro() error {
	gen := data.LinearSource(b.opt.seed+7, data.LinearOpt{
		N: microRows, D: microCols,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	ds := gen.Materialize()
	path := filepath.Join(b.runDir, "micro.csv")
	if err := writeCSV(path, ds); err != nil {
		return err
	}
	defer os.Remove(path)

	var idx []float64
	var csvSrc *data.CSVSource
	for i := 0; i < 3; i++ {
		start := b.tr.now()
		s, err := data.OpenCSV(path, "micro", -1, false)
		end := b.tr.now()
		if err != nil {
			return err
		}
		b.tr.add(span{ID: b.tr.id(), Name: "data.OpenCSV", Layer: "data", Req: "micro", Start: start, End: end}, 0)
		idx = append(idx, float64(end-start)/1e6)
		if csvSrc != nil {
			csvSrc.Close()
		}
		csvSrc = s
	}
	defer csvSrc.Close()
	b.putMicro("data.csv.index_ms", "ms", median(idx))

	const T = 6
	memRate, memSum, err := b.passRate("data.mem.pass", data.NewMemSource(ds), T)
	if err != nil {
		return err
	}
	genRate, genSum, err := b.passRate("data.gen.pass", gen.Clone(), T)
	if err != nil {
		return err
	}
	csvRate, csvSum, err := b.passRate("data.csv.pass", csvSrc, T)
	if err != nil {
		return err
	}
	if memSum != genSum || memSum != csvSum {
		b.fails.add("data backends disagree: checksums mem %v gen %v csv %v", memSum, genSum, csvSum)
	}
	b.putMicro("data.mem.rows_per_s", "rows/s", memRate)
	b.putMicro("data.gen.rows_per_s", "rows/s", genRate)
	b.putMicro("data.csv.chunk_rows_per_s", "rows/s", csvRate)

	// Shuffled RowAt over a file four times the CSV row-block cache: most
	// calls seek and parse a block.
	perm := rand.New(rand.NewSource(b.opt.seed)).Perm(microRows)[:microRowAt]
	var rates []float64
	for pass := 0; pass < 3; pass++ {
		s, err := csvSrc.Reopen()
		if err != nil {
			return err
		}
		start := b.tr.now()
		for _, i := range perm {
			x, y, err := s.RowAt(i, nil)
			if err != nil {
				s.Close()
				return err
			}
			if y != ds.Y[i] || x[0] != ds.X.Row(i)[0] {
				b.fails.add("csv RowAt(%d) differs from the rows written", i)
			}
		}
		end := b.tr.now()
		s.Close()
		b.tr.add(span{ID: b.tr.id(), Name: "data.csv.RowAt shuffled", Layer: "data", Req: "micro", Start: start, End: end}, 0)
		rates = append(rates, float64(len(perm))/(float64(end-start)/1e9))
	}
	b.putMicro("data.csv.rowat_rows_per_s", "rows/s", median(rates))
	return nil
}
