// Convergence traces: per-iteration excess risk of Algorithm 1 (data
// splitting, ε-DP) versus the full-data (ε, δ)-DP variant the paper
// leaves as an open problem, on the same heavy-tailed LASSO workload.
// The split variant takes fewer, cleaner steps on disjoint chunks; the
// full-data variant takes Θ((nε)^{2/5}) noisier steps under advanced
// composition.
//
//	go run ./examples/convergence
package main

import (
	"fmt"
	"math"

	"htdp"
)

func main() {
	rng := htdp.NewRNG(3)
	const n, d = 20000, 200
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

	trace := func(label string, at map[int]float64, T int) func(int, []float64) {
		marks := map[int]bool{1: true, T / 4: true, T / 2: true, T: true}
		return func(t int, w []float64) {
			if marks[t] {
				at[t] = htdp.ExcessRisk(htdp.SquaredLoss{}, w, ref, ds)
			}
		}
	}

	eps := 1.0
	splitAt := map[int]float64{}
	splitT := int(math.Cbrt(float64(n) * eps))
	if _, err := htdp.FrankWolfe(src, htdp.FWOptions{
		Loss: htdp.SquaredLoss{}, Domain: dom, Eps: eps,
		Rng: rng.Split(), Trace: trace("split", splitAt, splitT),
	}); err != nil {
		panic(err)
	}

	fullAt := map[int]float64{}
	fullT := int(math.Ceil(math.Pow(float64(n)*eps, 0.4)))
	if _, err := htdp.FullDataFW(src, htdp.FullDataFWOptions{
		Loss: htdp.SquaredLoss{}, Domain: dom, Eps: eps, Delta: math.Pow(float64(n), -1.1),
		Rng: rng.Split(), Trace: trace("full", fullAt, fullT),
	}); err != nil {
		panic(err)
	}

	fmt.Printf("Algorithm 1 (split, ε-DP), T=%d:\n", splitT)
	printTrace(splitAt)
	fmt.Printf("\nFull-data variant ((ε,δ)-DP), T=%d:\n", fullT)
	printTrace(fullAt)
	fmt.Println("\nBoth trajectories should descend; the paper's theory covers only")
	fmt.Println("the split variant — the comparison itself is the open problem.")
}

func printTrace(at map[int]float64) {
	// Maps iterate order is random; print in increasing t.
	keys := make([]int, 0, len(at))
	for k := range at {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, t := range keys {
		fmt.Printf("  t=%-4d excess risk %.5f\n", t, at[t])
	}
}
