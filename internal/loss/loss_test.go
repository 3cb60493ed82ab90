package loss

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// numGrad computes a central finite-difference gradient of l at w.
func numGrad(l Loss, w, x []float64, y float64) []float64 {
	const h = 1e-6
	g := make([]float64, len(w))
	wp := vecmath.Clone(w)
	for i := range w {
		wp[i] = w[i] + h
		vp := l.Value(wp, x, y)
		wp[i] = w[i] - h
		vm := l.Value(wp, x, y)
		wp[i] = w[i]
		g[i] = (vp - vm) / (2 * h)
	}
	return g
}

func checkGradient(t *testing.T, l Loss, trials int, tol float64) {
	t.Helper()
	r := randx.New(42)
	for tr := 0; tr < trials; tr++ {
		d := 1 + r.Intn(6)
		w := make([]float64, d)
		x := make([]float64, d)
		for i := range w {
			w[i] = r.Normal()
			x[i] = r.Normal()
		}
		y := r.Normal()
		if _, ok := l.(Logistic); ok {
			y = r.Rademacher()
		}
		if _, ok := l.(RegLogistic); ok {
			y = r.Rademacher()
		}
		got := l.Grad(make([]float64, d), w, x, y)
		want := numGrad(l, w, x, y)
		if vecmath.Dist2(got, want) > tol*(1+vecmath.Norm2(want)) {
			t.Fatalf("%s gradient mismatch: got %v, numeric %v (w=%v x=%v y=%v)",
				l.Name(), got, want, w, x, y)
		}
	}
}

func TestSquaredGradient(t *testing.T)     { checkGradient(t, Squared{}, 100, 1e-5) }
func TestLogisticGradient(t *testing.T)    { checkGradient(t, Logistic{}, 100, 1e-5) }
func TestRegLogisticGradient(t *testing.T) { checkGradient(t, RegLogistic{Lambda: 0.3}, 100, 1e-5) }
func TestBiweightGradient(t *testing.T)    { checkGradient(t, Biweight{C: 2}, 100, 1e-4) }
func TestHuberGradient(t *testing.T)       { checkGradient(t, Huber{C: 1.5}, 100, 1e-4) }

func TestHuberShape(t *testing.T) {
	l := Huber{C: 1}
	// Quadratic inside, linear outside, continuous at the knot.
	if got := l.rho(0.5); got != 0.125 {
		t.Errorf("ρ(0.5) = %v", got)
	}
	if got := l.rho(3); got != 2.5 {
		t.Errorf("ρ(3) = %v, want 3−0.5", got)
	}
	if math.Abs(l.rho(1)-l.rho(1+1e-12)) > 1e-9 {
		t.Error("discontinuity at the knot")
	}
	if l.rho(2) != l.rho(-2) {
		t.Error("ρ not even")
	}
	// ψ′ bounded by c, odd, identity inside.
	for s := -5.0; s <= 5.0; s += 0.01 {
		p := l.PsiPrime(s)
		if math.Abs(p) > 1 {
			t.Fatalf("|ψ′(%v)| = %v > c", s, p)
		}
		if math.Abs(p+l.PsiPrime(-s)) > 1e-15 {
			t.Fatalf("ψ′ not odd at %v", s)
		}
		if math.Abs(s) <= 1 && p != s {
			t.Fatalf("ψ′(%v) = %v inside the window", s, p)
		}
	}
}

func TestMeanSquaredGradient(t *testing.T) {
	l := MeanSquared{}
	w := []float64{1, -2}
	x := []float64{3, 0.5}
	if got := l.Value(w, x, 0); got != 4+6.25 {
		t.Errorf("Value = %v", got)
	}
	g := l.Grad(make([]float64, 2), w, x, 0)
	if g[0] != -4 || g[1] != -5 {
		t.Errorf("Grad = %v", g)
	}
}

func TestSquaredValue(t *testing.T) {
	l := Squared{}
	if got := l.Value([]float64{1, 2}, []float64{3, 4}, 10); got != 1 {
		t.Fatalf("Value = %v, want 1", got)
	}
	g := l.Grad(make([]float64, 2), []float64{1, 2}, []float64{3, 4}, 10)
	want := []float64{2 * 3, 2 * 4}
	vecmath.Scale(want, 1)
	if g[0] != 6 || g[1] != 8 {
		t.Fatalf("Grad = %v", g)
	}
}

func TestLogisticValueStability(t *testing.T) {
	l := Logistic{}
	// Huge margin: loss → 0 on the right side, linear on the wrong side,
	// never Inf/NaN.
	w := []float64{1000}
	if v := l.Value(w, []float64{1}, 1); v < 0 || math.IsNaN(v) || v > 1e-10 {
		t.Errorf("well-classified loss = %v", v)
	}
	if v := l.Value(w, []float64{1}, -1); math.Abs(v-1000) > 1e-6 {
		t.Errorf("misclassified loss = %v, want ≈1000", v)
	}
	if v := l.Value([]float64{0}, []float64{1}, 1); math.Abs(v-math.Ln2) > 1e-12 {
		t.Errorf("loss at 0 = %v, want ln 2", v)
	}
}

func TestLogisticGradBounded(t *testing.T) {
	// ‖∇ℓ‖∞ ≤ ‖x‖∞ since |σ| ≤ 1: logistic satisfies Assumption 4's
	// bounded-derivative requirement.
	l := Logistic{}
	r := randx.New(7)
	for i := 0; i < 200; i++ {
		w := []float64{r.Normal() * 100}
		x := []float64{r.Normal() * 10}
		g := l.Grad(make([]float64, 1), w, x, r.Rademacher())
		if math.Abs(g[0]) > math.Abs(x[0])+1e-12 {
			t.Fatalf("|grad|=%v exceeds |x|=%v", g[0], x[0])
		}
	}
}

func TestRegLogisticAddsRidge(t *testing.T) {
	w := []float64{2, -1}
	x := []float64{0, 0} // kill the data part
	plain := Logistic{}.Value(w, x, 1)
	reg := RegLogistic{Lambda: 2}.Value(w, x, 1)
	if math.Abs(reg-plain-5) > 1e-12 { // (λ/2)‖w‖² = 1·5
		t.Fatalf("ridge term wrong: %v vs %v", reg, plain)
	}
}

func TestBiweightShape(t *testing.T) {
	l := Biweight{C: 2}
	// ψ(0)=0, ψ saturates at c²/6 outside [−c, c], even.
	if l.psi(0) != 0 {
		t.Error("ψ(0) != 0")
	}
	if got := l.psi(100); got != 4.0/6 {
		t.Errorf("ψ(100) = %v, want c²/6", got)
	}
	if l.psi(1.3) != l.psi(-1.3) {
		t.Error("ψ not even")
	}
	// ψ′ odd, positive on (0, c), zero outside; max |ψ′| = 16c/(25√5).
	maxAbs := 0.0
	for s := -3.0; s <= 3.0; s += 0.0005 {
		p := l.PsiPrime(s)
		if s > 0 && s < 2 && p <= 0 {
			t.Fatalf("ψ′(%v) = %v, want > 0", s, p)
		}
		if math.Abs(p+l.PsiPrime(-s)) > 1e-12 {
			t.Fatalf("ψ′ not odd at %v", s)
		}
		if a := math.Abs(p); a > maxAbs {
			maxAbs = a
		}
	}
	want := 16 * l.C / (25 * math.Sqrt(5))
	if math.Abs(maxAbs-want) > 1e-3 {
		t.Errorf("max|ψ′| = %v, want %v", maxAbs, want)
	}
}

func TestEmpiricalAndFullGradient(t *testing.T) {
	x := vecmath.MatFromRows([][]float64{{1, 0}, {0, 1}})
	y := []float64{1, -1}
	w := []float64{0, 0}
	l := Squared{}
	// (0−1)² and (0+1)² average to 1.
	if got := Empirical(l, w, x, y); got != 1 {
		t.Fatalf("Empirical = %v", got)
	}
	g, err := FullGradientSourceWS(l, nil, w, data.NewMemSource(&data.Dataset{X: x, Y: y}), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sample grads: 2·(0−1)·(1,0) = (−2,0); 2·(0+1)·(0,1) = (0,2); mean = (−1,1).
	if g[0] != -1 || g[1] != 1 {
		t.Fatalf("FullGradientSourceWS = %v", g)
	}
	// Finite-difference check of the dataset-level gradient.
	const h = 1e-6
	for j := 0; j < 2; j++ {
		wp := vecmath.Clone(w)
		wp[j] += h
		up := Empirical(l, wp, x, y)
		wp[j] -= 2 * h
		um := Empirical(l, wp, x, y)
		if num := (up - um) / (2 * h); math.Abs(num-g[j]) > 1e-5 {
			t.Fatalf("dataset grad[%d] = %v, numeric %v", j, g[j], num)
		}
	}
}

func TestExcessRisk(t *testing.T) {
	x := vecmath.MatFromRows([][]float64{{1}, {1}})
	y := []float64{2, 2}
	l := Squared{}
	// Reference w=2 is the optimum (risk 0); w=0 has risk 4.
	if got := ExcessRisk(l, []float64{0}, []float64{2}, x, y); got != 4 {
		t.Fatalf("ExcessRisk = %v", got)
	}
	if got := ExcessRisk(l, []float64{2}, []float64{2}, x, y); got != 0 {
		t.Fatalf("self ExcessRisk = %v", got)
	}
}

func TestEmptyDataset(t *testing.T) {
	l := Squared{}
	if got := Empirical(l, []float64{1}, vecmath.NewMat(0, 1), nil); got != 0 {
		t.Fatalf("empty Empirical = %v", got)
	}
}

func TestNames(t *testing.T) {
	for _, l := range []Loss{Squared{}, Logistic{}, RegLogistic{Lambda: 1}, Biweight{C: 1}} {
		if l.Name() == "" {
			t.Error("empty name")
		}
	}
}
