package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// RunRequest is the body of POST /v1/run: one algorithm, one pooled
// dataset, one deterministic seed. The zero value of every optional
// field means "use the default" (see API.md for the full schema).
type RunRequest struct {
	// Dataset names a pool entry (GET /v1/datasets lists them).
	Dataset string `json:"dataset"`
	// Algo is one of "fw", "lasso", "iht", "sparseopt", or "dpsgd" —
	// the same set as cmd/htdp -algo.
	Algo string `json:"algo"`
	// Eps is the privacy budget ε (default 1).
	Eps float64 `json:"eps,omitempty"`
	// Delta is the privacy parameter δ (default n^-1.1, resolved against
	// the dataset at execution).
	Delta float64 `json:"delta,omitempty"`
	// T is the iteration count (default: the algorithm's theory choice).
	T int `json:"T,omitempty"`
	// SStar is the target sparsity of iht/sparseopt (default 10).
	SStar int `json:"sstar,omitempty"`
	// Batch is the dpsgd minibatch size (default n/50, resolved against
	// the dataset at execution). Only valid with algo "dpsgd".
	Batch int `json:"batch,omitempty"`
	// Clip is the dpsgd per-sample ℓ2 clip bound (default 1). Only
	// valid with algo "dpsgd".
	Clip float64 `json:"clip,omitempty"`
	// LR is the dpsgd step size (default 0.1). Only valid with algo
	// "dpsgd".
	LR float64 `json:"lr,omitempty"`
	// Accountant selects the dpsgd noise calibration: "compose" (the
	// default — amplification lemma plus advanced composition) or "rdp"
	// (subsampled-Gaussian RDP). Only valid with algo "dpsgd".
	Accountant string `json:"accountant,omitempty"`
	// Seed is the base seed of the run's deterministic randomness
	// (default 1). Identical (dataset, algo, eps, delta, T, sstar, seed)
	// requests produce bit-identical results.
	Seed int64 `json:"seed,omitempty"`
	// Parallelism is the in-run worker count (0 = all cores). It trades
	// wall-clock only — results are bit-identical at every setting — so
	// it is excluded from the cache key.
	Parallelism int `json:"parallelism,omitempty"`
	// Async requests a job handle (202 + job id) instead of a blocking
	// response; also excluded from the cache key.
	Async bool `json:"async,omitempty"`
	// TimeoutMS, when positive, bounds the run's execution time in
	// milliseconds; past it the run is cancelled and the serving layer
	// answers 504. A scheduling knob like Parallelism — it can only
	// discard work, never change bytes — so it too is excluded from the
	// cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Canonical validates the request and resolves every defaulted
// result-relevant field to its effective value, zeroing the
// scheduling-only fields (Parallelism, Async, TimeoutMS). Two requests
// for the same bytes therefore have equal canonical forms — the
// property the response cache keys on.
func (q RunRequest) Canonical() (RunRequest, error) {
	if q.Dataset == "" {
		return q, fmt.Errorf("dataset is required")
	}
	switch q.Algo {
	case "fw", "lasso", "iht", "sparseopt", "dpsgd":
	default:
		return q, fmt.Errorf("unknown algo %q (have fw, lasso, iht, sparseopt, dpsgd)", q.Algo)
	}
	if q.Algo == "dpsgd" {
		if q.Batch < 0 {
			return q, fmt.Errorf("batch %d negative (0 means the n/50 default)", q.Batch)
		}
		if q.Clip == 0 {
			q.Clip = 1
		}
		if q.Clip < 0 || math.IsNaN(q.Clip) || math.IsInf(q.Clip, 0) {
			return q, fmt.Errorf("clip %v outside (0, ∞)", q.Clip)
		}
		if q.LR == 0 {
			q.LR = 0.1
		}
		if q.LR < 0 || math.IsNaN(q.LR) || math.IsInf(q.LR, 0) {
			return q, fmt.Errorf("lr %v outside (0, ∞)", q.LR)
		}
		if q.Accountant == "" {
			q.Accountant = core.AccountantCompose
		}
		if q.Accountant != core.AccountantCompose && q.Accountant != core.AccountantRDP {
			return q, fmt.Errorf("unknown accountant %q (have compose, rdp)", q.Accountant)
		}
	} else if q.Batch != 0 || q.Clip != 0 || q.LR != 0 || q.Accountant != "" {
		// The dpsgd knobs silently ignored on another algorithm would
		// fragment the cache with dead fields; reject, like the sweep
		// endpoint rejects a per-request dataset.
		return q, fmt.Errorf("batch/clip/lr/accountant are only valid with algo dpsgd")
	}
	if q.Eps == 0 {
		q.Eps = 1
	}
	if q.Eps < 0 || math.IsNaN(q.Eps) || math.IsInf(q.Eps, 0) {
		return q, fmt.Errorf("eps %v outside (0, ∞)", q.Eps)
	}
	if q.Delta < 0 || q.Delta >= 1 || math.IsNaN(q.Delta) {
		return q, fmt.Errorf("delta %v outside [0, 1) (0 means the n^-1.1 default)", q.Delta)
	}
	if q.T < 0 {
		return q, fmt.Errorf("T %d negative (0 means the theory default)", q.T)
	}
	if q.SStar == 0 {
		q.SStar = 10
	}
	if q.SStar < 1 {
		return q, fmt.Errorf("sstar %d below 1", q.SStar)
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.TimeoutMS < 0 {
		return q, fmt.Errorf("timeout_ms %d is negative", q.TimeoutMS)
	}
	q.Parallelism, q.Async, q.TimeoutMS = 0, false, 0
	return q, nil
}

// RunResult is the response of POST /v1/run (and of GET /v1/results/{id}
// for async runs): the estimate and its summary statistics. Risk and
// RiskZero are squared-loss empirical risks of the estimate and of the
// zero vector, measured by the streaming evaluator — the same numbers
// cmd/htdp -stream prints.
type RunResult struct {
	Dataset  string    `json:"dataset"`
	Algo     string    `json:"algo"`
	N        int       `json:"n"`
	D        int       `json:"d"`
	Eps      float64   `json:"eps"`
	Delta    float64   `json:"delta"`
	Seed     int64     `json:"seed"`
	Risk     float64   `json:"risk"`
	RiskZero float64   `json:"risk_zero"`
	Norm1    float64   `json:"norm1"`
	NNZ      int       `json:"nnz"`
	W        []float64 `json:"w"`
}

// ExecuteRun runs one algorithm over src per the request — the exact
// dispatch behind cmd/htdp -stream, so a service response is
// bit-identical to the batch CLI run with the same parameters. The
// request is canonicalized first (invalid requests error out); the
// caller's Parallelism survives canonicalization because it never
// changes result bytes, only wall-clock.
//
// ctx carries cooperative cancellation: the source is wrapped so every
// chunk read checks it, which is the granularity at which all four
// algorithms (and the risk evaluators) observe a cancel. A cancelled
// run returns the context's cause; an uncancelled run is bit-identical
// under any context, including context.Background().
func ExecuteRun(ctx context.Context, src data.Source, q RunRequest) (*RunResult, error) {
	par := q.Parallelism
	q, err := q.Canonical()
	if err != nil {
		return nil, err
	}
	src = data.WithContext(ctx, src)
	n, d := src.N(), src.D()
	delta := q.Delta
	if delta == 0 {
		delta = math.Pow(float64(n), -1.1)
	}
	rng := randx.New(q.Seed)
	var w []float64
	switch q.Algo {
	case "fw":
		w, err = core.FrankWolfe(src, core.FWOptions{
			Loss: loss.Squared{}, Domain: polytope.NewL1Ball(d, 1),
			Eps: q.Eps, T: q.T, Parallelism: par, Rng: rng,
		})
	case "lasso":
		w, err = core.Lasso(src, core.LassoOptions{
			Eps: q.Eps, Delta: delta, T: q.T, Parallelism: par, Rng: rng,
		})
	case "iht":
		w, err = core.SparseLinReg(src, core.SparseLinRegOptions{
			Eps: q.Eps, Delta: delta, SStar: q.SStar, T: q.T,
			Parallelism: par, Rng: rng,
		})
	case "sparseopt":
		w, err = core.SparseOpt(src, core.SparseOptOptions{
			Loss: loss.Squared{}, Eps: q.Eps, Delta: delta, SStar: q.SStar, T: q.T,
			Parallelism: par, Rng: rng,
		})
	case "dpsgd":
		w, err = core.DPSGD(src, core.DPSGDOptions{
			Loss: loss.Squared{}, Eps: q.Eps, Delta: delta, T: q.T,
			Batch: q.Batch, Clip: q.Clip, LR: q.LR, Accountant: q.Accountant,
			Parallelism: par, Rng: rng,
		})
	}
	if err != nil {
		return nil, err
	}
	risk, err := loss.EmpiricalSource(loss.Squared{}, w, src, par)
	if err != nil {
		return nil, err
	}
	risk0, err := loss.EmpiricalSource(loss.Squared{}, make([]float64, d), src, par)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Dataset: q.Dataset, Algo: q.Algo, N: n, D: d,
		Eps: q.Eps, Delta: delta, Seed: q.Seed,
		Risk: risk, RiskZero: risk0,
		Norm1: vecmath.Norm1(w), NNZ: vecmath.Norm0(w), W: w,
	}, nil
}

// cacheKey derives the deterministic cache key of a canonicalized
// request: the SHA-256 of its kind-tagged JSON encoding. encoding/json
// marshals struct fields in declaration order with shortest round-trip
// floats, so equal canonical requests always hash equally. The key
// deliberately contains nothing about the requester: tenancy, like
// Parallelism, schedules the work without changing its bytes, so the
// same request from two tenants shares one entry and coalesces onto
// one computation.
func cacheKey(kind string, canonical any) string {
	b, err := json.Marshal(canonical)
	if err != nil {
		panic(err) // unreachable: request types marshal by construction
	}
	sum := sha256.Sum256(append([]byte(kind+"\x00"), b...))
	return hex.EncodeToString(sum[:])
}
