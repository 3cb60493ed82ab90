package vecmath

import (
	"math"
	"runtime"
	"testing"

	"htdp/internal/randx"
)

func randMat(seed int64, rows, cols int) *Mat {
	r := randx.New(seed)
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal() * 10
	}
	return m
}

var workerSweep = []int{1, 2, 3, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)}

func TestMatWorkspaceMatVecMatchesMatVec(t *testing.T) {
	m := randMat(1, 301, 47)
	v := randx.New(2).NormalVec(make([]float64, 47), 3)
	want := m.MatVec(nil, v)
	var ws MatWorkspace
	for _, w := range workerSweep {
		got := ws.MatVec(nil, m, v, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d = %v, want bit-identical %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestMatWorkspaceMatTVecDeterministicAndClose(t *testing.T) {
	m := randMat(3, 512, 33)
	v := randx.New(4).NormalVec(make([]float64, 512), 1)
	ref := m.MatTVec(nil, v)
	var ws MatWorkspace
	base := ws.MatTVec(nil, m, v, 1)
	for j := range ref {
		// Blocked merge may differ from the single pass only in rounding.
		if math.Abs(base[j]-ref[j]) > 1e-9*(1+math.Abs(ref[j])) {
			t.Fatalf("coord %d: blocked %v vs sequential %v", j, base[j], ref[j])
		}
	}
	for _, w := range workerSweep[1:] {
		got := ws.MatTVec(nil, m, v, w)
		for j := range base {
			if got[j] != base[j] {
				t.Fatalf("workers=%d: coord %d = %v, want bit-identical %v", w, j, got[j], base[j])
			}
		}
	}
}

func TestColMomentsP(t *testing.T) {
	m := randMat(7, 400, 9)
	base := ColMomentsP(m, 1)
	for j := 0; j < m.Cols; j++ {
		var ref OnlineMoments
		for i := 0; i < m.Rows; i++ {
			ref.Add(m.At(i, j))
		}
		if base[j].N != m.Rows || math.Abs(base[j].Mean-ref.Mean) > 1e-12 ||
			math.Abs(base[j].Var()-ref.Var()) > 1e-9 {
			t.Fatalf("col %d: moments n=%d mean=%v var=%v, want n=%d mean=%v var=%v",
				j, base[j].N, base[j].Mean, base[j].Var(), ref.N, ref.Mean, ref.Var())
		}
	}
	for _, w := range workerSweep[1:] {
		got := ColMomentsP(m, w)
		for j := range base {
			if got[j] != base[j] {
				t.Fatalf("workers=%d: col %d moments differ", w, j)
			}
		}
	}
	if empty := ColMomentsP(NewMat(0, 3), 4); len(empty) != 3 || empty[0].N != 0 {
		t.Fatalf("empty ColMomentsP = %v", empty)
	}
}
