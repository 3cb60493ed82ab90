// Quickstart: a 60-second tour of htdp. Generates heavy-tailed linear
// data (log-normal features — the paper's Figure 1 workload), runs
// Heavy-tailed DP-FW (Algorithm 1) at a few privacy budgets, and
// compares against the non-private optimum.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"

	"htdp"
)

func main() {
	rng := htdp.NewRNG(42)

	// High-dimensional regime: d comparable to n, heavy-tailed features.
	const n, d = 5000, 400
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: n, D: d,
		Feature: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   htdp.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
	fmt.Printf("dataset: %s\n", ds.Label)

	// Constraint set: the unit ℓ1 ball (LASSO geometry).
	dom := htdp.NewL1Ball(d, 1)

	// Non-private reference via exact Frank–Wolfe.
	src := htdp.NewMemSource(ds)
	ref, err := htdp.NonprivateFW(src, htdp.SquaredLoss{}, dom, 200, nil)
	if err != nil {
		panic(err)
	}
	refRisk := htdp.EmpiricalRisk(htdp.SquaredLoss{}, ref, ds)
	fmt.Printf("non-private risk: %.5f\n", refRisk)

	// Private runs across budgets: error falls as ε grows.
	for _, eps := range []float64{0.5, 1, 2, 4} {
		w, err := htdp.FrankWolfe(src, htdp.FWOptions{
			Loss:   htdp.SquaredLoss{},
			Domain: dom,
			Eps:    eps,
			Rng:    rng.Split(),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("ε=%-4g excess risk %.5f  (‖w‖₁=%.3f, ε-DP)\n",
			eps, htdp.ExcessRisk(htdp.SquaredLoss{}, w, ref, ds), norm1(w))
	}
}

func norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}
