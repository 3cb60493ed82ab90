// Private LASSO with heavy-tailed data (the paper's Figure 5 workload):
// Algorithm 2 shrinks every data entry at the Theorem-5 threshold K and
// runs DP Frank–Wolfe under advanced composition, achieving (ε, δ)-DP
// with excess risk Õ(log d/(nε)^{2/5}) under fourth-moment assumptions.
//
// This example also reruns the paper's §6.4 observation: despite the
// better rate, Algorithm 2 can lose to Algorithm 1 at practical n.
//
//	go run ./examples/lasso
package main

import (
	"fmt"
	"math"

	"htdp"
)

func main() {
	rng := htdp.NewRNG(7)
	const n, d = 10000, 200
	delta := math.Pow(float64(n), -1.1) // §6.2: δ = n^{−1.1}

	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: n, D: d,
		Feature: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   htdp.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
	src := htdp.NewMemSource(ds)
	dom := htdp.NewL1Ball(d, 1)
	ref, err := htdp.NonprivateFW(src, htdp.SquaredLoss{}, dom, 200, nil)
	if err != nil {
		panic(err)
	}

	fmt.Println("eps    alg2(lasso)   alg1(robust-fw)")
	for _, eps := range []float64{0.5, 1, 2, 4} {
		w2, err := htdp.Lasso(src, htdp.LassoOptions{
			Eps: eps, Delta: delta, Rng: rng.Split(),
		})
		if err != nil {
			panic(err)
		}
		w1, err := htdp.FrankWolfe(src, htdp.FWOptions{
			Loss: htdp.SquaredLoss{}, Domain: dom, Eps: eps, Rng: rng.Split(),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-5g  %-12.5f  %-12.5f\n", eps,
			htdp.ExcessRisk(htdp.SquaredLoss{}, w2, ref, ds),
			htdp.ExcessRisk(htdp.SquaredLoss{}, w1, ref, ds))
	}
	fmt.Println("\n(The paper's §6.4 notes Algorithm 2's hidden constants often")
	fmt.Println(" make it worse than Algorithm 1 until n is very large.)")
}
