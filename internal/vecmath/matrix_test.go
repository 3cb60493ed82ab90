package vecmath

import (
	"math/rand"
	"testing"
)

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -1)
	if m.At(0, 1) != 5 || m.At(1, 2) != -1 || m.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row should be a view, not a copy")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatFromRows(t *testing.T) {
	m := MatFromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("MatFromRows = %+v", m)
	}
	empty := MatFromRows(nil)
	if empty.Rows != 0 {
		t.Fatal("empty MatFromRows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	MatFromRows([][]float64{{1}, {1, 2}})
}

func TestMatVec(t *testing.T) {
	m := MatFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MatVec(nil, []float64{1, -1})
	want := []float64{-1, -1, -1}
	if Dist2(got, want) != 0 {
		t.Fatalf("MatVec = %v", got)
	}
	gt := m.MatTVec(nil, []float64{1, 0, 1})
	wantT := []float64{6, 8}
	if Dist2(gt, wantT) != 0 {
		t.Fatalf("MatTVec = %v", gt)
	}
}

func TestMatVecMatchesMulProperty(t *testing.T) {
	// (A·B)·v == A·(B·v) for random matrices.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n, k, d := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := NewMat(n, k), NewMat(k, d)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		lhs := mul(a, b).MatVec(nil, v)
		rhs := a.MatVec(nil, b.MatVec(nil, v))
		if Dist2(lhs, rhs) > 1e-9 {
			t.Fatalf("associativity violated: %v vs %v", lhs, rhs)
		}
	}
}

// mul is the reference product a·b for TestMatVecMatchesMulProperty.
func mul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k, aik := range a.Row(i) {
			Axpy(aik, b.Row(k), out.Row(i))
		}
	}
	return out
}
