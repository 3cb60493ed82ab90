package experiments

import (
	"fmt"
	"math"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/randx"
)

// The dpsgd experiment exercises minibatch DP-SGD over random-access
// sources — the scenario family that needed Source.RowAt. Panel (a) is
// the minibatch ablation: excess risk across batch sizes at fixed ε,
// where the batch size sets the subsampling rate q = b/n and so trades
// per-step noise against steps-per-epoch. Panel (b) is the
// amplification-accounting ablation: the same runs across ε under the
// classical amplification lemma ("compose") and under
// subsampled-Gaussian RDP accounting ("rdp"), whose gap is exactly the
// value of tighter amplification accounting. Both panels run on any
// backend (GenSource default; -stream substitutes a CSV).

func init() {
	register(dpsgdSpec())
}

func dpsgdSpec() Spec {
	return Spec{
		ID:          "dpsgd",
		Description: "Minibatch DP-SGD via random row access: batch-size ablation and subsampling-amplification accounting (GenSource default; -stream substitutes a CSV)",
		UsesSource:  true,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d = 100
			n := cfg.n(5000)
			open := cfg.Source
			backend := "gensource"
			if open == nil {
				open = func(seed int64) (data.Source, error) {
					return data.LinearSource(seed, data.LinearOpt{
						N: n, D: d,
						Feature: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
						Noise:   randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
					}), nil
				}
			} else {
				backend = "config.source"
			}
			excess := func(w []float64, src data.Source) (float64, error) {
				ref := data.WStarOf(src)
				if ref == nil {
					ref = make([]float64, src.D())
				}
				return loss.ExcessRiskSource(loss.Squared{}, w, ref, src, 0)
			}
			trial := func(tc *trialCtx, r *randx.RNG, eps float64, batch int, acct string) (float64, error) {
				src, err := tc.openSource(open, r.Int63())
				if err != nil {
					return 0, err
				}
				defer src.Close()
				w, err := core.DPSGD(src, core.DPSGDOptions{
					Loss: loss.Squared{}, Eps: eps, Delta: deltaFor(src.N()),
					T: 60, Batch: batch, Accountant: acct, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return excess(w, src)
			}
			// Batch sizes as fractions of n, so the subsampling rates the
			// panel sweeps are scale-invariant: q from 1/100 up to 1/4.
			batchGrid := []float64{
				math.Max(1, float64(n)/100), math.Max(1, float64(n)/50),
				math.Max(1, float64(n)/20), math.Max(1, float64(n)/10),
				math.Max(1, float64(n)/4),
			}
			pa := Panel{Figure: "dpsgd", Name: "a",
				XLabel: "batch size", YLabel: "excess risk",
				Title: fmt.Sprintf("minibatch ablation at eps=1 via %s, default n=%d, d=%d", backend, n, d)}
			for si, acct := range []string{core.AccountantCompose, core.AccountantRDP} {
				acct := acct
				addSeries(&pa, &err, cfg, "dpsgd-"+acct, batchGrid, int64(si), func(tc *trialCtx, r *randx.RNG, b float64) (float64, error) {
					return trial(tc, r, 1, int(b), acct)
				})
			}
			pb := Panel{Figure: "dpsgd", Name: "b",
				XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("amplification accounting at batch n/50 via %s, default n=%d, d=%d", backend, n, d)}
			for si, acct := range []string{core.AccountantCompose, core.AccountantRDP} {
				acct := acct
				addSeries(&pb, &err, cfg, "dpsgd-"+acct, epsGrid, int64(2+si), func(tc *trialCtx, r *randx.RNG, eps float64) (float64, error) {
					return trial(tc, r, eps, 0, acct) // Batch 0 → the n/50 default
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 2, pa)
			cfg.panelDone(2, 2, pb)
			return []Panel{pa, pb}, nil
		},
	}
}
