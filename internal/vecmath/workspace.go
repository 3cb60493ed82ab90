package vecmath

import "htdp/internal/parallel"

// MatWorkspace holds the blocked parallel dense kernels on the
// algorithms' hot paths, M·v and Mᵀ·v, together with their reusable
// scratch. Both shard the row range on the internal/parallel engine,
// so their output is bit-identical for every worker count: MatVec
// writes disjoint rows, and MatTVec merges fixed per-shard partials in
// shard order. The workspace owns the two kinds of per-call garbage a
// hot loop would otherwise pay — the per-shard partials live in a
// parallel.VecReducer, and each kernel's body closure is built once, on
// first use, reading its operands through the workspace fields — so a
// loop that reuses one workspace performs zero allocations per call
// after warm-up (with the sequential engine; the parallel engine adds
// only its per-goroutine spawns). One workspace serves one goroutine;
// it is not safe for concurrent use. The zero value is ready to use.
type MatWorkspace struct {
	m      *Mat
	v, dst []float64
	red    parallel.VecReducer

	matvecBody  func(shard, lo, hi int)
	mattvecBody func(shard, lo, hi int)
}

// MatVec computes dst = M·v, sharding the output rows across workers
// (0 → GOMAXPROCS). Each row is a disjoint write, so the result is
// bit-identical to the sequential (*Mat).MatVec at any worker count.
// dst is allocated when nil.
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

// MatTVec computes dst = Mᵀ·v, sharding the rows across workers and
// summing per-shard partials in shard order. The summation tree is
// blocked (fixed by the row count), so the result is worker-count
// independent, though it may differ from the single-pass (*Mat).MatTVec
// in the last bits. dst is allocated when nil.
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
