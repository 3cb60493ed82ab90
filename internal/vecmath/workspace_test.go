package vecmath

import (
	"testing"

	"htdp/internal/parallel"
	"htdp/internal/randx"
)

// refMatTVec is the reference blocked Mᵀ·v, written without the
// engine: a sequential loop over the row-shard bounds s·n/k, shard 0
// accumulating into dst, every later shard into a fresh zeroed partial
// that is added into dst in shard order.
func refMatTVec(m *Mat, v []float64) []float64 {
	dst := make([]float64, m.Cols)
	n := m.Rows
	k := parallel.NumShards(n)
	for s := 0; s < k; s++ {
		acc := dst
		if s > 0 {
			acc = make([]float64, m.Cols)
		}
		for i := s * n / k; i < (s+1)*n/k; i++ {
			Axpy(v[i], m.Row(i), acc)
		}
		if s > 0 {
			Axpy(1, acc, dst)
		}
	}
	return dst
}

// TestMatWorkspaceBitIdentical: the workspace kernels must reproduce
// the references bit for bit — MatVec the sequential (*Mat).MatVec,
// MatTVec the sequential shard loop — across shapes, worker counts, and
// workspace reuse (growing and shrinking shapes through one workspace).
func TestMatWorkspaceBitIdentical(t *testing.T) {
	var ws MatWorkspace
	shapes := []struct{ r, c int }{{1, 1}, {5, 3}, {200, 40}, {63, 65}, {130, 7}, {64*parallel.MaxShards + 9, 11}, {70, 5}}
	for si, sh := range shapes {
		m := randMat(int64(si+1), sh.r, sh.c)
		rng := randx.New(int64(100 + si))
		v := rng.NormalVec(make([]float64, sh.c), 1)
		u := rng.NormalVec(make([]float64, sh.r), 1)
		want := m.MatVec(nil, v)
		wantT := refMatTVec(m, u)
		for _, w := range []int{1, 4} {
			got := ws.MatVec(make([]float64, sh.r), m, v, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MatVec %dx%d w=%d: row %d = %v want %v", sh.r, sh.c, w, i, got[i], want[i])
				}
			}
			gotT := ws.MatTVec(make([]float64, sh.c), m, u, w)
			for i := range wantT {
				if gotT[i] != wantT[i] {
					t.Fatalf("MatTVec %dx%d w=%d: col %d = %v want %v", sh.r, sh.c, w, i, gotT[i], wantT[i])
				}
			}
		}
	}
}

// TestMatWorkspaceZeroAllocs: warm workspace + sequential engine +
// caller-owned destinations ⇒ zero allocations per kernel call.
func TestMatWorkspaceZeroAllocs(t *testing.T) {
	m := randMat(9, 300, 200)
	rng := randx.New(10)
	v := rng.NormalVec(make([]float64, 200), 1)
	u := rng.NormalVec(make([]float64, 300), 1)
	dstR := make([]float64, 300)
	dstC := make([]float64, 200)
	var ws MatWorkspace
	ws.MatVec(dstR, m, v, 1)
	ws.MatTVec(dstC, m, u, 1)
	if allocs := testing.AllocsPerRun(10, func() { ws.MatVec(dstR, m, v, 1) }); allocs != 0 {
		t.Errorf("MatVec allocates %v per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { ws.MatTVec(dstC, m, u, 1) }); allocs != 0 {
		t.Errorf("MatTVec allocates %v per call", allocs)
	}
}
