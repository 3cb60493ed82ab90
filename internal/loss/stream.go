package loss

import (
	"fmt"

	"htdp/internal/data"
	"htdp/internal/parallel"
	"htdp/internal/vecmath"
)

// The streaming evaluators walk a data.Source in StreamChunks(n) chunks
// so risk and gradients can be computed over data that never fits in
// memory at once. Within a chunk the samples are sharded on the
// internal/parallel engine; chunks merge in chunk order. Both orders
// are functions of n alone, so the value is bit-identical for every
// worker count and every backend serving the same rows — but it is a
// different (fixed) summation order than the matrix-resident Empirical,
// which keeps its historical full-range order.

// EmpiricalSource returns the empirical risk (1/n)·Σᵢ ℓ(w, (xᵢ, yᵢ))
// over the source, streaming one chunk at a time. workers resolves as
// everywhere (0 → GOMAXPROCS, 1 → sequential).
func EmpiricalSource(l Loss, w []float64, src data.Source, workers int) (float64, error) {
	n := src.N()
	if n < 1 {
		return 0, nil
	}
	var sum float64
	err := data.EachChunk(src, data.StreamChunks(n), func(_ int, ck *data.Dataset) error {
		sum += parallel.ReduceFloat(workers, ck.N(), func(_, lo, hi int) float64 {
			var p float64
			for i := lo; i < hi; i++ {
				p += l.Value(w, ck.X.Row(i), ck.Y[i])
			}
			return p
		})
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("loss: EmpiricalSource: %w", err)
	}
	return sum / float64(n), nil
}

// ExcessRiskSource returns EmpiricalSource(w) − EmpiricalSource(ref),
// the §6 measurement, in two streaming passes.
func ExcessRiskSource(l Loss, w, ref []float64, src data.Source, workers int) (float64, error) {
	rw, err := EmpiricalSource(l, w, src, workers)
	if err != nil {
		return 0, err
	}
	rr, err := EmpiricalSource(l, ref, src, workers)
	if err != nil {
		return 0, err
	}
	return rw - rr, nil
}

// GradWorkspace is the reusable scratch of the full-gradient loops: the
// margin/scale buffers of FullGradientSourceWS's fused path, its
// per-chunk partial, and GradSum's per-shard reduction buffers and
// cached loop closure. One workspace per run per goroutine; reusing it
// across a loop's iterations eliminates the per-iteration allocations
// of the full-gradient baselines. The zero value is ready to use.
type GradWorkspace struct {
	// Mat serves the fused path's blocked X·w and Xᵀc products.
	Mat vecmath.MatWorkspace

	margins, scales, part []float64

	red      parallel.VecReducer
	bufsPool parallel.ShardBufs
	bufs     [][]float64

	// GradSum call state, read by the cached body.
	l         Loss
	w         []float64
	ck        *data.Dataset
	transform func(g []float64)
	body      func(shard, lo, hi int)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// FullGradientSourceWS writes the empirical-risk gradient
// (1/n)·Σᵢ ∇ℓ(w, (xᵢ, yᵢ)) over the source into dst (allocated when
// nil) and returns it, streaming one chunk at a time; ws is reusable
// scratch (nil allocates a fresh one). Margin-factorized losses without
// a regularization term take the fused path — one blocked X·w product
// for the margins, one scalar pass for the gradient scales, one blocked
// Xᵀc product for the chunk gradient — instead of materializing n
// gradient rows; the result is bit-identical to GradSum (the per-shard,
// per-coordinate accumulation chains are unchanged, see
// loss.MarginLoss).
func FullGradientSourceWS(l Loss, dst, w []float64, src data.Source, workers int, ws *GradWorkspace) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, src.D())
	}
	vecmath.Zero(dst)
	n := src.N()
	if n < 1 {
		return dst, nil
	}
	if ws == nil {
		ws = &GradWorkspace{}
	}
	ml, fused := AsMargin(l)
	if fused && ml.RegCoeff() != 0 {
		// The λ·w term is folded into every per-sample row by the unfused
		// path; summing it separately would change the addition order, so
		// regularized losses keep the row-at-a-time path for bit-identity.
		fused = false
	}
	ws.part = growFloats(ws.part, len(dst))
	part := ws.part
	err := data.EachChunk(src, data.StreamChunks(n), func(_ int, ck *data.Dataset) error {
		m := ck.N()
		if fused {
			margins := ws.Mat.MatVec(growFloats(ws.margins, m), ck.X, w, workers)
			ws.margins = margins
			ws.scales = growFloats(ws.scales, m)
			ScalesFromMargins(ml, ws.scales, margins, ck.Y)
			ws.Mat.MatTVec(part, ck.X, ws.scales, workers)
		} else {
			ws.GradSum(part, l, w, ck, nil, workers)
		}
		vecmath.Axpy(1, part, dst)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("loss: FullGradientSourceWS: %w", err)
	}
	vecmath.Scale(dst, 1/float64(n))
	return dst, nil
}

// GradSum writes Σᵢ transform(∇ℓ(w, (xᵢ, yᵢ))) over the chunk's rows
// into dst (len d), zeroing it first — the one sharded per-sample
// gradient sum, behind FullGradientSourceWS's generic path and the DP
// baselines' clipped sums. Each shard evaluates Grad into its own
// scratch row, applies transform (nil for none; the baselines clip
// here) and adds the row into its own partial; partials merge in shard
// order, so the sum is bit-identical at every worker count. transform
// runs concurrently across shards and must write only its argument.
// A warm workspace makes the call allocation-free (with the sequential
// engine).
func (ws *GradWorkspace) GradSum(dst []float64, l Loss, w []float64, ck *data.Dataset, transform func(g []float64), workers int) {
	m := ck.N()
	if m <= 0 {
		vecmath.Zero(dst)
		return
	}
	k := parallel.NumShards(m)
	ws.red.Setup(k, dst)
	ws.bufs = ws.bufsPool.Get(k, len(dst))
	ws.l, ws.w, ws.ck, ws.transform = l, w, ck, transform
	if ws.body == nil {
		ws.body = func(shard, lo, hi int) {
			l, w, ck, transform := ws.l, ws.w, ws.ck, ws.transform
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				vecmath.Zero(acc)
			}
			buf := ws.bufs[shard]
			vecmath.Zero(buf)
			for i := lo; i < hi; i++ {
				l.Grad(buf, w, ck.X.Row(i), ck.Y[i])
				if transform != nil {
					transform(buf)
				}
				vecmath.Axpy(1, buf, acc)
			}
		}
	}
	parallel.For(workers, m, ws.body)
	ws.red.Merge(dst)
	ws.l, ws.w, ws.ck, ws.transform = nil, nil, nil, nil
}
