package vecmath

import "htdp/internal/parallel"

// MatWorkspace is the reusable iteration scratch of the blocked dense
// kernels. The allocating entry points (MatVecP, MatTVecP) cost
// two kinds of per-call garbage on a hot loop: the per-shard partial
// accumulators of the reduction kernels, and the loop-body closure that
// escapes into the worker pool. A workspace owns both — partials live
// in a parallel.VecReducer, and each kernel's body closure is built
// once, on first use, reading its operands through the workspace fields
// — so a loop that reuses one workspace performs zero allocations per
// call after warm-up (with the sequential engine; the parallel engine
// adds only its per-goroutine spawns).
//
// Results are bit-identical to the allocating kernels: the shard
// structure, per-shard arithmetic, and shard-order merge are unchanged;
// only where the partials and closures live differs. One workspace
// serves one goroutine; it is not safe for concurrent use.
type MatWorkspace struct {
	m      *Mat
	v, dst []float64
	red    parallel.VecReducer

	matvecBody  func(shard, lo, hi int)
	mattvecBody func(shard, lo, hi int)
}

// MatVec computes dst = M·v like (*Mat).MatVecP, bit-identically,
// reusing the workspace's cached loop body. dst is allocated when nil.
func (ws *MatWorkspace) MatVec(dst []float64, m *Mat, v []float64, workers int) []float64 {
	if len(v) != m.Cols {
		panic("vecmath: MatVec dim mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	ws.m, ws.v, ws.dst = m, v, dst
	if ws.matvecBody == nil {
		ws.matvecBody = func(_, lo, hi int) {
			m, v, dst := ws.m, ws.v, ws.dst
			for i := lo; i < hi; i++ {
				dst[i] = Dot(m.Row(i), v)
			}
		}
	}
	parallel.For(workers, m.Rows, ws.matvecBody)
	ws.m, ws.v, ws.dst = nil, nil, nil
	return dst
}

// MatTVec computes dst = Mᵀ·v like (*Mat).MatTVecP, bit-identically,
// with pooled per-shard partials merged in shard order. dst is
// allocated when nil.
func (ws *MatWorkspace) MatTVec(dst []float64, m *Mat, v []float64, workers int) []float64 {
	if len(v) != m.Rows {
		panic("vecmath: MatTVec dim mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	if m.Rows == 0 {
		Zero(dst)
		return dst
	}
	ws.red.Setup(parallel.NumShards(m.Rows), dst)
	ws.m, ws.v = m, v
	if ws.mattvecBody == nil {
		ws.mattvecBody = func(shard, lo, hi int) {
			m, v := ws.m, ws.v
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				Zero(acc)
			}
			for i := lo; i < hi; i++ {
				Axpy(v[i], m.Row(i), acc)
			}
		}
	}
	parallel.For(workers, m.Rows, ws.mattvecBody)
	ws.red.Merge(dst)
	ws.m, ws.v = nil, nil
	return dst
}
