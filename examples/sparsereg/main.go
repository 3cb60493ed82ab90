// Private sparse linear regression with heavy-tailed noise (the
// paper's Figure 7 workload): Algorithm 3 shrinks the data, then runs
// DP iterative hard thresholding with the Peeling selection primitive,
// achieving (ε, δ)-DP with estimation error Õ(s*²·log²d/(nε)).
//
//	go run ./examples/sparsereg
package main

import (
	"fmt"
	"math"

	"htdp"
)

func main() {
	rng := htdp.NewRNG(11)
	const n, d, sStar = 30000, 400, 5
	delta := math.Pow(float64(n), -1.1)

	// Planted s*-sparse parameter at half scale (Theorem 7 assumes
	// ‖w*‖₂ ≤ 1/2), Gaussian design, log-normal noise.
	wStar := htdp.SparseWStar(rng, d, sStar)
	for i := range wStar {
		wStar[i] *= 0.5
	}
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: n, D: d,
		Feature: htdp.Normal{Mu: 0, Sigma: math.Sqrt(5)},
		Noise:   htdp.Shifted{Base: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.5)}},
		WStar:   wStar,
	})

	// The gradient step contracts at rate |1 − η₀·λ(E[xxᵀ])|; with
	// feature variance 5 the step size must stay below 2/5.
	src := htdp.NewMemSource(ds)
	iht, err := htdp.NonprivateIHT(src, 2*sStar, 30, 0.15)
	if err != nil {
		panic(err)
	}
	fmt.Printf("non-private IHT:  ‖ŵ−w*‖₂ = %.4f\n", htdp.Dist2(iht, wStar))

	for _, eps := range []float64{1, 2, 4} {
		w, err := htdp.SparseLinReg(src, htdp.SparseLinRegOptions{
			Eps: eps, Delta: delta, SStar: sStar,
			T: 4, K: 2.5, Eta0: 0.15,
			Rng: rng.Split(),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("alg3 ε=%-3g:       ‖ŵ−w*‖₂ = %.4f  (support %d, (ε,δ)-DP, δ=%.1e)\n",
			eps, htdp.Dist2(w, wStar), htdp.Norm0(w), delta)
	}
	fmt.Printf("\nzero baseline:    ‖0−w*‖₂ = %.4f\n", htdp.Norm2(wStar))
}
