package vecmath

import (
	"testing"

	"htdp/internal/randx"
)

// TestMatWorkspaceBitIdentical: the workspace kernels must reproduce
// the allocating kernels bit for bit across shapes, worker counts, and
// workspace reuse (growing and shrinking shapes through one workspace).
func TestMatWorkspaceBitIdentical(t *testing.T) {
	var ws MatWorkspace
	shapes := []struct{ r, c int }{{1, 1}, {5, 3}, {200, 40}, {63, 65}, {130, 7}}
	for si, sh := range shapes {
		m := randMat(int64(si+1), sh.r, sh.c)
		rng := randx.New(int64(100 + si))
		v := rng.NormalVec(make([]float64, sh.c), 1)
		u := rng.NormalVec(make([]float64, sh.r), 1)
		for _, w := range []int{1, 4} {
			got := ws.MatVec(make([]float64, sh.r), m, v, w)
			want := m.MatVecP(make([]float64, sh.r), v, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MatVec %dx%d w=%d: row %d = %v want %v", sh.r, sh.c, w, i, got[i], want[i])
				}
			}
			gotT := ws.MatTVec(make([]float64, sh.c), m, u, w)
			wantT := m.MatTVecP(make([]float64, sh.c), u, w)
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
