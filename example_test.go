package htdp_test

import (
	"fmt"
	"math"
	"os"

	"htdp"
)

// ExampleFrankWolfe runs Algorithm 1 end to end on a heavy-tailed
// linear-regression instance and reports feasibility of the output.
func ExampleFrankWolfe() {
	rng := htdp.NewRNG(1)
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: 2000, D: 50,
		Feature: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   htdp.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
	dom := htdp.NewL1Ball(50, 1)
	w, err := htdp.FrankWolfe(htdp.NewMemSource(ds), htdp.FWOptions{
		Loss: htdp.SquaredLoss{}, Domain: dom, Eps: 1, Rng: rng.Split(),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible=%v dim=%d\n", dom.Contains(w, 1e-9), len(w))
	// Output: feasible=true dim=50
}

// ExamplePeeling shows the noiseless limit of the private top-s
// selection: with λ = 0 it is exact hard thresholding.
func ExamplePeeling() {
	rng := htdp.NewRNG(2)
	v := []float64{5, -7, 1, 3, -2}
	out := htdp.Peeling(rng, v, 2, 1, 1e-5, 0)
	fmt.Println(out)
	// Output: [5 -7 0 0 0]
}

// ExampleRobustMean contrasts the Catoni-style estimator with the
// empirical mean on data containing one enormous outlier.
func ExampleRobustMean() {
	xs := []float64{1, 2, 1.5, 0.5, 1, 1e9}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	robust := htdp.RobustMean(xs, 3, 1)
	fmt.Printf("empirical mean dominated by outlier: %v\n", mean > 1e6)
	fmt.Printf("robust mean stays near 1: %v\n", math.Abs(robust-1.2) < 1)
	// Output:
	// empirical mean dominated by outlier: true
	// robust mean stays near 1: true
}

// ExampleNewMemSource shows the Source chunk protocol: chunk t of T is
// rows [t·n/T, (t+1)·n/T), served zero-copy from memory.
func ExampleNewMemSource() {
	rng := htdp.NewRNG(1)
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: 1000, D: 20, Feature: htdp.Normal{Mu: 0, Sigma: 1},
	})
	src := htdp.NewMemSource(ds)
	defer src.Close()
	ck, err := src.Chunk(2, 5) // rows [400, 600)
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d d=%d chunk=%d rows\n", src.N(), src.D(), ck.N())
	// Output: n=1000 d=20 chunk=200 rows
}

// ExampleLinearSource generates chunks on demand from per-row seeded
// streams: any chunking reproduces the same rows bit for bit, so a
// streamed run equals an eager one exactly.
func ExampleLinearSource() {
	src := htdp.LinearSource(7, htdp.LinearOpt{
		N: 10000, D: 50,
		Feature: htdp.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   htdp.Normal{Mu: 0, Sigma: 0.3},
	})
	defer src.Close()
	ck, err := src.Chunk(9, 10) // rows [9000, 10000), generated on the fly
	if err != nil {
		panic(err)
	}
	full := src.Materialize() // the eager path
	fmt.Println(ck.X.At(0, 0) == full.X.At(9000, 0))
	fmt.Println(ck.Y[999] == full.Y[9999])
	// Output:
	// true
	// true
}

// ExampleOpenCSV streams a CSV from disk with peak memory bounded by
// one chunk: opening indexes row offsets (8 bytes/row), and each Chunk
// call reads only its row range.
func ExampleOpenCSV() {
	f, err := os.CreateTemp("", "htdp_example_*.csv")
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(f, "0.5,1.25,2\n1.5,0.25,-1\n2.5,0.75,4\n3.5,1.75,0") // features..., label
	f.Close()
	defer os.Remove(f.Name())

	src, err := htdp.OpenCSV(f.Name(), "demo", -1, false)
	if err != nil {
		panic(err)
	}
	defer src.Close()
	ck, err := src.Chunk(1, 2) // rows [2, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d d=%d chunk rows=%d labels=%v\n", src.N(), src.D(), ck.N(), ck.Y)
	// Output: n=4 d=2 chunk rows=2 labels=[4 0]
}

// ExampleAdvancedComposition splits a total (ε, δ) budget across 100
// mechanisms per the paper's Lemma 2.
func ExampleAdvancedComposition() {
	per, err := htdp.AdvancedComposition(htdp.DPParams{Eps: 1, Delta: 1e-5}, 100)
	if err != nil {
		panic(err)
	}
	fmt.Printf("per-round ε ≈ %.4f, δ′ ≈ %.0e\n", per.Eps, per.Delta)
	// Output: per-round ε ≈ 0.0101, δ′ ≈ 1e-07
}

// ExampleMinimaxLowerBound evaluates the Theorem 9 floor for sparse
// heavy-tailed mean estimation.
func ExampleMinimaxLowerBound() {
	lb := htdp.MinimaxLowerBound(1, 10, 1000, 100000, 1, 1e-6)
	fmt.Printf("floor positive: %v\n", lb > 0)
	// Output: floor positive: true
}
