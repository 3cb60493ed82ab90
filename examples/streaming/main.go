// Streaming: the out-of-core data path end to end. Generates a
// heavy-tailed regression workload, spills it to a CSV on disk, then
// runs Heavy-tailed DP-FW three ways — from memory (MemSource), from
// disk (CSVSource), and regenerated on demand (GenSource) — and checks
// the three outputs are bit-identical while the streamed runs keep only
// one chunk resident.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"htdp"
)

func main() {
	const n, d, seed = 50000, 100, 42

	// A streaming generator: rows exist only while their chunk does.
	gen := htdp.LinearSource(seed, htdp.LinearOpt{
		N: n, D: d,
		Feature: htdp.LogNormal{Mu: 0, Sigma: 0.9},
		Noise:   htdp.Normal{Mu: 0, Sigma: 0.3},
	})
	defer gen.Close()
	fmt.Printf("workload: n=%d d=%d (%.1f MB materialized, %d-row chunks)\n",
		n, d, float64(n*d*8)/(1<<20), n/htdp.StreamChunks(n))

	// Spill to disk and reopen as an out-of-core CSV source.
	full := gen.Materialize()
	path := filepath.Join(os.TempDir(), "htdp_streaming_demo.csv")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := htdp.WriteCSV(f, full); err != nil {
		panic(err)
	}
	f.Close()
	defer os.Remove(path)
	csvSrc, err := htdp.OpenCSV(path, "demo", -1, false)
	if err != nil {
		panic(err)
	}
	defer csvSrc.Close()
	info, _ := os.Stat(path)
	fmt.Printf("spilled to %s (%.1f MB on disk)\n", path, float64(info.Size())/(1<<20))

	// The same ε-DP run from all three backends.
	run := func(src htdp.Source) []float64 {
		w, err := htdp.FrankWolfe(src, htdp.FWOptions{
			Loss:   htdp.SquaredLoss{},
			Domain: htdp.NewL1Ball(d, 1),
			Eps:    4,
			Rng:    htdp.NewRNG(7),
		})
		if err != nil {
			panic(err)
		}
		return w
	}
	wMem := run(htdp.NewMemSource(full))
	wCSV := run(csvSrc)
	wGen := run(gen)

	identical := true
	for j := range wMem {
		if wMem[j] != wCSV[j] || wMem[j] != wGen[j] {
			identical = false
			break
		}
	}
	fmt.Printf("mem vs csv vs gen bit-identical: %v\n", identical)

	// Risk measured by a streaming pass over the CSV — still one chunk
	// resident.
	risk, err := htdp.EmpiricalRiskSource(htdp.SquaredLoss{}, wCSV, csvSrc)
	if err != nil {
		panic(err)
	}
	risk0, err := htdp.EmpiricalRiskSource(htdp.SquaredLoss{}, make([]float64, d), csvSrc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("streamed risk: ŵ %.5f vs zero vector %.5f\n", risk, risk0)
}
