// Sparse ℓ2-regularized logistic regression over the ℓ0 ball (the
// paper's Figure 10 workload): Algorithm 5 combines the Catoni robust
// coordinate gradient with Peeling, handling heavy-tailed features
// under the RSC/RSS conditions of Assumption 4.
//
//	go run ./examples/logistic
package main

import (
	"fmt"
	"math"

	"htdp"
)

func main() {
	rng := htdp.NewRNG(23)
	const n, d, sStar = 8000, 300, 10
	delta := math.Pow(float64(n), -1.1)

	wStar := htdp.SparseWStar(rng, d, sStar)
	ds := htdp.LogisticData(rng, htdp.LogisticOpt{
		N: n, D: d,
		Feature: htdp.Normal{Mu: 0, Sigma: math.Sqrt(5)},
		Noise:   htdp.Logistic{Mu: 0, S: 0.5},
		WStar:   wStar,
	})

	l := htdp.RegLogisticLoss{Lambda: 1e-3}
	starRisk := htdp.EmpiricalRisk(l, wStar, ds)
	fmt.Printf("risk at planted w*: %.5f\n", starRisk)

	for _, eps := range []float64{0.5, 1, 2, 4} {
		// Logistic gradients are bounded by |xⱼ|, so the worst-case
		// Lemma-4 truncation scale is far too conservative here; a small
		// manual K keeps the Peeling noise (∝ K) low with negligible bias.
		w, err := htdp.SparseOpt(htdp.NewMemSource(ds), htdp.SparseOptOptions{
			Loss: l, Eps: eps, Delta: delta, SStar: sStar, K: 4, Eta: 0.8,
			Rng: rng.Split(),
		})
		if err != nil {
			panic(err)
		}
		acc := accuracy(ds, w)
		fmt.Printf("alg5 ε=%-4g excess risk %+.5f   accuracy %.1f%%   support %d\n",
			eps, htdp.EmpiricalRisk(l, w, ds)-starRisk, 100*acc, htdp.Norm0(w))
	}
}

// accuracy is the 0/1 classification accuracy of sign(⟨w, x⟩).
func accuracy(ds *htdp.Dataset, w []float64) float64 {
	correct := 0
	for i := 0; i < ds.N(); i++ {
		var z float64
		row := ds.X.Row(i)
		for j, wj := range w {
			z += wj * row[j]
		}
		if (z >= 0) == (ds.Y[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(ds.N())
}
