package loss

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/parallel"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func streamTestSource(n, d int) (*data.GenSource, *data.Dataset) {
	gen := data.LinearSource(21, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	return gen, gen.Materialize()
}

// TestEmpiricalSourceMatchesDense: the streamed risk must agree with
// the dense evaluator up to roundoff (the summation orders differ) and
// be bit-identical across backends and worker counts.
func TestEmpiricalSourceMatchesDense(t *testing.T) {
	gen, full := streamTestSource(700, 9)
	w := make([]float64, 9)
	for j := range w {
		w[j] = 0.1 * float64(j)
	}
	dense := Empirical(Squared{}, w, full.X, full.Y)
	ref, err := EmpiricalSource(Squared{}, w, data.NewMemSource(full), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref-dense) > 1e-9*(1+math.Abs(dense)) {
		t.Fatalf("streamed %v vs dense %v", ref, dense)
	}
	for _, workers := range []int{1, 3, 0} {
		for name, src := range map[string]data.Source{"mem": data.NewMemSource(full), "gen": gen} {
			got, err := EmpiricalSource(Squared{}, w, src, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("%s workers=%d: %v, want bit-identical %v", name, workers, got, ref)
			}
		}
	}
}

// TestFullGradientSourceMatchesDense: the streamed gradient must agree
// with a single sequential pass over all rows up to roundoff (the
// summation orders differ) and be bit-identical across backends and
// worker counts.
func TestFullGradientSourceMatchesDense(t *testing.T) {
	gen, full := streamTestSource(650, 7)
	w := make([]float64, 7)
	w[2] = 0.5
	dense := make([]float64, 7)
	buf := make([]float64, 7)
	for i := 0; i < full.N(); i++ {
		Squared{}.Grad(buf, w, full.X.Row(i), full.Y[i])
		vecmath.Axpy(1, buf, dense)
	}
	vecmath.Scale(dense, 1/float64(full.N()))
	ref, err := FullGradientSourceWS(Squared{}, nil, w, data.NewMemSource(full), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range dense {
		if math.Abs(ref[j]-dense[j]) > 1e-9*(1+math.Abs(dense[j])) {
			t.Fatalf("coord %d: streamed %v vs dense %v", j, ref[j], dense[j])
		}
	}
	var ws GradWorkspace
	for _, workers := range []int{1, 4, 0} {
		got, err := FullGradientSourceWS(Squared{}, nil, w, gen, workers, &ws)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("gen workers=%d coord %d: %v, want bit-identical %v", workers, j, got[j], ref[j])
			}
		}
	}
}

// refGradSum is the reference per-sample gradient sum, written without
// the engine: a sequential loop over the shard bounds s·m/k with fresh
// buffers, shard 0 accumulating into dst and every later shard's
// partial added into dst in shard order.
func refGradSum(l Loss, w []float64, ck *data.Dataset, transform func(g []float64)) []float64 {
	d := ck.D()
	dst := make([]float64, d)
	m := ck.N()
	k := parallel.NumShards(m)
	for s := 0; s < k; s++ {
		acc := dst
		if s > 0 {
			acc = make([]float64, d)
		}
		buf := make([]float64, d)
		for i := s * m / k; i < (s+1)*m/k; i++ {
			l.Grad(buf, w, ck.X.Row(i), ck.Y[i])
			if transform != nil {
				transform(buf)
			}
			vecmath.Axpy(1, buf, acc)
		}
		if s > 0 {
			vecmath.Axpy(1, acc, dst)
		}
	}
	return dst
}

// TestGradSumMatchesShardLoop: the workspace gradient sum reproduces the
// sequential shard loop bit for bit, with and without a per-sample
// transform, at every worker count, through one workspace reused across
// chunks whose shard count grows and shrinks.
func TestGradSumMatchesShardLoop(t *testing.T) {
	_, full := streamTestSource(64*parallel.MaxShards+100, 9)
	w := make([]float64, 9)
	for j := range w {
		w[j] = 0.05 * float64(j-4)
	}
	clip := func(g []float64) { vecmath.ClipL2(g, 1) }
	var ws GradWorkspace
	for _, m := range []int{1, 100, 1000, full.N(), 65, 700} {
		ck := &data.Dataset{X: &vecmath.Mat{Rows: m, Cols: 9, Data: full.X.Data[:m*9]}, Y: full.Y[:m]}
		for name, transform := range map[string]func([]float64){"none": nil, "clip": clip} {
			for _, l := range []Loss{Squared{}, RegLogistic{Lambda: 0.2}} {
				want := refGradSum(l, w, ck, transform)
				for _, workers := range []int{1, 2, 4, 8} {
					got := make([]float64, 9)
					ws.GradSum(got, l, w, ck, transform, workers)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("m=%d %s %s workers=%d coord %d: %v, want bit-identical %v",
								m, l.Name(), name, workers, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

func TestExcessRiskSource(t *testing.T) {
	_, full := streamTestSource(300, 5)
	src := data.NewMemSource(full)
	zero := make([]float64, 5)
	got, err := ExcessRiskSource(Squared{}, full.WStar, zero, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 0 {
		t.Fatalf("w* should beat the zero vector on its own data, got excess %v", got)
	}
}
