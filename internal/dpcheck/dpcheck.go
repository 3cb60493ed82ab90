// Package dpcheck is an empirical differential-privacy audit harness:
// it runs a mechanism many times on two neighbouring datasets, bins the
// outputs, and verifies that every bin's probability ratio respects
// e^ε (up to δ mass and sampling slack). It cannot prove privacy —
// auditing is one-sided — but it reliably catches calibration bugs such
// as an undersized sensitivity, a wrong noise scale, or a forgotten
// composition factor, which are exactly the failure modes of hand-built
// DP code. Today only one release goes through this harness: the core
// package's TestFrankWolfePrivacyAudit audits Algorithm 1's vertex
// selection, and TestFrankWolfeAuditCatchesUndersizedScale is its
// negative control. Auditing the other algorithms and both DPSGD
// accountants is open work: ROADMAP.md, item 5, "A privacy audit for
// every algorithm and accountant".
package dpcheck

import (
	"fmt"
	"math"
	"sort"
)

// Mechanism produces one randomized scalar output for a dataset
// selector: the harness calls it with neighbour=false for D and
// neighbour=true for D′. Implementations hold the two fixed datasets
// and their own RNG.
type Mechanism func(neighbour bool) float64

// Audit is the result of one audit run.
type Audit struct {
	Eps     float64 // claimed ε
	Delta   float64 // claimed δ
	Trials  int     // samples per dataset
	Bins    int
	MaxRat  float64 // largest observed log-probability ratio
	Viol    float64 // probability mass in bins exceeding e^ε beyond slack
	Passed  bool
	Details string
}

// Options configures an audit.
type Options struct {
	// Trials per dataset (default 200000). More trials → tighter audit.
	Trials int
	// Bins for the output histogram (default 40).
	Bins int
	// Slack multiplies the allowed ratio e^ε to absorb sampling noise
	// (default 1.25). A mechanism violating ε by 2× will still fail.
	Slack float64
	// MinCount ignores bins with fewer than this many samples in both
	// histograms (default 50): tail bins carry no statistical signal.
	MinCount int
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 200000
	}
	if o.Bins == 0 {
		o.Bins = 40
	}
	if o.Slack == 0 {
		o.Slack = 1.25
	}
	if o.MinCount == 0 {
		o.MinCount = 50
	}
	return o
}

// Run audits a scalar mechanism against a claimed (ε, δ) guarantee.
//
// Method: draw Trials outputs under each dataset, histogram both on a
// common equal-width grid spanning the pooled range, and for every bin
// with enough mass compare the two empirical frequencies. Under
// (ε, δ)-DP, P[bin|D] ≤ e^ε·P[bin|D′] + δ must hold for every bin (the
// bin is an event), so an observed ratio beyond Slack·e^ε after the δ
// allowance flags a violation.
func Run(m Mechanism, eps, delta float64, opt Options) Audit {
	opt = opt.withDefaults()
	if eps <= 0 {
		panic("dpcheck: non-positive ε")
	}
	a := Audit{Eps: eps, Delta: delta, Trials: opt.Trials, Bins: opt.Bins}

	xs := make([]float64, opt.Trials)
	ys := make([]float64, opt.Trials)
	for i := 0; i < opt.Trials; i++ {
		xs[i] = m(false)
		ys[i] = m(true)
	}
	lo, hi := pooledRange(xs, ys)
	if hi <= lo {
		// Degenerate mechanism (constant output): trivially private.
		a.Passed = true
		a.Details = "constant output"
		return a
	}
	hx := histogram(xs, lo, hi, opt.Bins)
	hy := histogram(ys, lo, hi, opt.Bins)

	n := float64(opt.Trials)
	for b := 0; b < opt.Bins; b++ {
		cx, cy := hx[b], hy[b]
		if cx < opt.MinCount && cy < opt.MinCount {
			continue
		}
		// Poisson sampling widens the allowance for thin bins: a bin with
		// c counts has ~1/√c relative noise, so grant 3σ on top of Slack.
		minC := cx
		if cy < minC {
			minC = cy
		}
		if minC < 1 {
			minC = 1
		}
		allowed := math.Exp(eps) * opt.Slack * (1 + 3/math.Sqrt(float64(minC)))
		px, py := float64(cx)/n, float64(cy)/n
		// Symmetric check with the δ allowance on the larger side.
		for _, pair := range [2][2]float64{{px, py}, {py, px}} {
			p, q := pair[0], pair[1]
			if p <= delta {
				continue
			}
			rat := (p - delta) / math.Max(q, 1/n) // q=0 → one-sample floor
			if lr := math.Log(rat); lr > a.MaxRat {
				a.MaxRat = lr
			}
			if rat > allowed {
				a.Viol += p
				a.Details += fmt.Sprintf("bin %d: ratio %.3g > %.3g; ", b, rat, allowed)
			}
		}
	}
	a.Passed = a.Viol == 0
	return a
}

// RunVector audits a vector mechanism by projecting its output through
// the given statistic (e.g. a fixed linear functional): DP is closed
// under post-processing, so any projection of a private output must
// itself pass the scalar audit.
func RunVector(m func(neighbour bool) []float64, stat func([]float64) float64, eps, delta float64, opt Options) Audit {
	return Run(func(neighbour bool) float64 {
		return stat(m(neighbour))
	}, eps, delta, opt)
}

func pooledRange(xs, ys []float64) (lo, hi float64) {
	// Clip to central quantiles so one wild output cannot stretch the
	// grid into uselessness; mass outside the grid lands in edge bins.
	all := make([]float64, 0, len(xs)+len(ys))
	all = append(all, xs...)
	all = append(all, ys...)
	sort.Float64s(all)
	lo = all[int(0.001*float64(len(all)))]
	hi = all[len(all)-1-int(0.001*float64(len(all)))]
	return lo, hi
}

func histogram(xs []float64, lo, hi float64, bins int) []int {
	h := make([]int, bins)
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		h[b]++
	}
	return h
}
