// Package data generates the paper's workloads: synthetic linear and
// logistic models with heavy-tailed features and noise exactly as
// described in §6.1, the sparse planted-parameter construction, and
// deterministic simulators standing in for the four UCI datasets the
// paper evaluates on (the module is offline; see DESIGN.md,
// "Substitutions").
package data

import (
	"fmt"
	"math"

	"htdp/internal/parallel"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// Dataset is a supervised dataset with an optional planted parameter.
type Dataset struct {
	Label string
	X     *vecmath.Mat // n×d feature matrix, rows are samples
	Y     []float64    // n labels (±1 for classification)
	WStar []float64    // planted parameter, nil when unknown
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.X.Rows }

// D returns the feature dimension.
func (d *Dataset) D() int { return d.X.Cols }

// Subset returns a view of rows [lo, hi) sharing the underlying storage.
func (d *Dataset) Subset(lo, hi int) *Dataset {
	if lo < 0 || hi > d.N() || lo > hi {
		panic(fmt.Sprintf("data: Subset [%d,%d) of %d rows", lo, hi, d.N()))
	}
	return &Dataset{
		Label: d.Label,
		X: &vecmath.Mat{
			Rows: hi - lo,
			Cols: d.X.Cols,
			Data: d.X.Data[lo*d.X.Cols : hi*d.X.Cols],
		},
		Y:     d.Y[lo:hi],
		WStar: d.WStar,
	}
}

// Split partitions the dataset into T contiguous, near-equal parts —
// the disjoint-chunk strategy Algorithms 1, 3, and 5 use so each
// iteration touches fresh samples.
func (d *Dataset) Split(T int) []*Dataset {
	if T < 1 || T > d.N() {
		panic(fmt.Sprintf("data: Split into T=%d parts of %d rows", T, d.N()))
	}
	parts := make([]*Dataset, T)
	n := d.N()
	for t := 0; t < T; t++ {
		parts[t] = d.Subset(t*n/T, (t+1)*n/T)
	}
	return parts
}

// Clone deep-copies the dataset so destructive transforms (shrinkage)
// cannot leak into the caller's copy. A nil WStar stays nil: "no
// planted parameter" (CSV data) must survive the copy — WStarOf treats
// any non-nil slice, even empty, as a planted parameter.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Label: d.Label,
		X:     d.X.Clone(),
		Y:     vecmath.Clone(d.Y),
	}
	if d.WStar != nil {
		c.WStar = vecmath.Clone(d.WStar)
	}
	return c
}

// Shrink returns a copy whose features and labels are entry-wise
// truncated at K: x̃ᵢⱼ = sign(xᵢⱼ)·min(|xᵢⱼ|, K), ỹᵢ likewise — step 2
// of Algorithms 2 and 3.
func (d *Dataset) Shrink(k float64) *Dataset {
	c := d.Clone()
	for i := range c.X.Data {
		if c.X.Data[i] > k {
			c.X.Data[i] = k
		} else if c.X.Data[i] < -k {
			c.X.Data[i] = -k
		}
	}
	for i, y := range c.Y {
		if y > k {
			c.Y[i] = k
		} else if y < -k {
			c.Y[i] = -k
		}
	}
	return c
}

// L1UnitWStar samples a parameter uniformly spread on the unit ℓ1
// sphere: Dirichlet-like magnitudes with random signs (§6.1, polytope
// case: "randomly generate w* such that ‖w*‖₁ = 1").
func L1UnitWStar(r *randx.RNG, d int) []float64 {
	w := make([]float64, d)
	var s float64
	for i := range w {
		e := r.Exponential(1)
		w[i] = e * r.Rademacher()
		s += e
	}
	for i := range w {
		w[i] /= s
	}
	return w
}

// SparseWStar samples the §6.1 sparse parameter: w ~ N(0, 100²)^d, a
// random (d − s*)-subset zeroed, then projected to the unit ℓ2 ball
// (the projection lands on the sphere almost surely).
func SparseWStar(r *randx.RNG, d, sStar int) []float64 {
	if sStar < 1 || sStar > d {
		panic(fmt.Sprintf("data: SparseWStar s*=%d outside [1,%d]", sStar, d))
	}
	w := make([]float64, d)
	for i := range w {
		w[i] = 100 * r.Normal()
	}
	perm := r.Perm(d)
	for _, j := range perm[sStar:] {
		w[j] = 0
	}
	vecmath.ProjectL2Ball(w, 1)
	return w
}

// LinearOpt configures a linear-model workload y = ⟨w*, x⟩ + ι.
type LinearOpt struct {
	N, D    int
	Feature randx.Dist // law of each coordinate of x
	Noise   randx.Dist // law of ι (nil for noiseless)
	WStar   []float64  // planted parameter; nil → L1UnitWStar
}

// Linear generates a linear-regression dataset.
func Linear(r *randx.RNG, opt LinearOpt) *Dataset {
	validateShape(opt.N, opt.D)
	w := opt.WStar
	if w == nil {
		w = L1UnitWStar(r, opt.D)
	}
	if len(w) != opt.D {
		panic("data: WStar dimension mismatch")
	}
	x := vecmath.NewMat(opt.N, opt.D)
	y := make([]float64, opt.N)
	for i := 0; i < opt.N; i++ {
		row := x.Row(i)
		randx.SampleVec(opt.Feature, r, row)
		y[i] = vecmath.Dot(w, row)
		if opt.Noise != nil {
			y[i] += opt.Noise.Sample(r)
		}
	}
	return &Dataset{
		Label: fmt.Sprintf("linear(%s,%s,n=%d,d=%d)", opt.Feature.Name(), noiseName(opt.Noise), opt.N, opt.D),
		X:     x, Y: y, WStar: w,
	}
}

// LogisticOpt configures a classification workload
// y = sign(sigmoid(⟨x, w*⟩ + ζ) − 1/2) ∈ {−1, +1} (§6.1).
type LogisticOpt struct {
	N, D    int
	Feature randx.Dist
	Noise   randx.Dist // law of ζ (nil for noiseless)
	WStar   []float64  // nil → L1UnitWStar
}

// LogisticModel generates a logistic-classification dataset.
func LogisticModel(r *randx.RNG, opt LogisticOpt) *Dataset {
	validateShape(opt.N, opt.D)
	w := opt.WStar
	if w == nil {
		w = L1UnitWStar(r, opt.D)
	}
	if len(w) != opt.D {
		panic("data: WStar dimension mismatch")
	}
	x := vecmath.NewMat(opt.N, opt.D)
	y := make([]float64, opt.N)
	for i := 0; i < opt.N; i++ {
		row := x.Row(i)
		randx.SampleVec(opt.Feature, r, row)
		z := vecmath.Dot(w, row)
		if opt.Noise != nil {
			z += opt.Noise.Sample(r)
		}
		// sign(sigmoid(z) − 1/2) = sign(z); ties broken to +1.
		if z >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return &Dataset{
		Label: fmt.Sprintf("logistic(%s,%s,n=%d,d=%d)", opt.Feature.Name(), noiseName(opt.Noise), opt.N, opt.D),
		X:     x, Y: y, WStar: w,
	}
}

func noiseName(d randx.Dist) string {
	if d == nil {
		return "none"
	}
	return d.Name()
}

func validateShape(n, d int) {
	if n <= 0 || d <= 0 {
		panic(fmt.Sprintf("data: invalid shape n=%d d=%d", n, d))
	}
}

// Standardize rescales every feature column in place to unit empirical
// second moment (skipping all-zero columns) and returns the per-column
// scales applied. Mirrors the usual preprocessing for the UCI runs.
// Column moments and the rescale both run on the row-sharded engine,
// so the scales are deterministic for any GOMAXPROCS.
func Standardize(d *Dataset) []float64 {
	moments := vecmath.ColMomentsP(d.X, 0)
	scales := make([]float64, d.D())
	for j, o := range moments {
		m2 := o.Var() + o.Mean*o.Mean // (1/n)·Σ x² from the Welford pair
		if m2 == 0 {
			scales[j] = 1
			continue
		}
		scales[j] = 1 / math.Sqrt(m2)
	}
	parallel.For(0, d.N(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := d.X.Row(i)
			for j := range row {
				row[j] *= scales[j]
			}
		}
	})
	return scales
}
