package robust

import (
	"runtime"
	"testing"

	"htdp/internal/parallel"
	"htdp/internal/randx"
)

// refEstimateFunc is the reference coordinate-wise estimator, written
// without the engine: a sequential loop over the sample-shard bounds
// s·n/k with a fresh scratch row per shard, shard 0 summing Term into
// dst and every later shard into a fresh partial added into dst in
// shard order, then the 1/n scaling.
func refEstimateFunc(e MeanEstimator, d, n int, grad func(i int, buf []float64)) []float64 {
	dst := make([]float64, d)
	k := parallel.NumShards(n)
	for s := 0; s < k; s++ {
		acc := dst
		if s > 0 {
			acc = make([]float64, d)
		}
		buf := make([]float64, d)
		for i := s * n / k; i < (s+1)*n/k; i++ {
			grad(i, buf)
			for j, x := range buf {
				acc[j] += e.Term(x)
			}
		}
		if s > 0 {
			for j := range dst {
				dst[j] += acc[j]
			}
		}
	}
	inv := 1 / float64(n)
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// The estimator's sharded hot path must be bit-identical to the
// sequential shard loop at every worker count, through one workspace
// reused across sample counts whose shard count grows and shrinks.
func TestEstimatorParallelismBitIdentical(t *testing.T) {
	const maxN, d = 2100, 90
	r := randx.New(21)
	rows := make([][]float64, maxN)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 50)
	}
	grad := func(i int, buf []float64) { copy(buf, rows[i]) }
	levels := []int{1, 2, 3, runtime.GOMAXPROCS(0), 4 * runtime.GOMAXPROCS(0)}
	ws := NewWorkspace()
	for _, n := range []int{700, maxN, 5, 130} {
		want := refEstimateFunc(MeanEstimator{S: 10, Beta: 1}, d, n, grad)
		for _, p := range levels {
			e := MeanEstimator{S: 10, Beta: 1, Parallelism: p}
			got := e.EstimateFuncWS(make([]float64, d), n, ws, grad)
			for j := 0; j < d; j++ {
				if got[j] != want[j] {
					t.Fatalf("n=%d Parallelism=%d coord %d: %v != %v", n, p, j, got[j], want[j])
				}
			}
		}
	}
}
