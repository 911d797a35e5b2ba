// Package model implements Ken's dynamic probabilistic models (§3.1):
// Markovian models that are stepped forward by a transition, queried for
// expected attribute values, and conditioned on observed subsets.
//
// Three families are provided, mirroring the paper's examples:
//
//   - Constant (Example 3.1): X̂(t+1) = X̂(t), a random-walk model whose
//     prediction is the last incorporated value.
//   - Linear (Example 3.2): per-attribute AR(1), X̂(t+1) = α·X̂(t) + β,
//     equivalent to the single-node dual models of Jain et al.
//   - LinearGaussian (Example 3.3, §5.1): a multivariate time-varying
//     Gaussian with a VAR(1) transition and a seasonal (diurnal) mean
//     profile, capturing both temporal and spatial correlations.
//
// All models are deterministic replicas: two clones stepped and conditioned
// identically produce identical predictions, which is the invariant that
// keeps Ken's source and sink in sync.
package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Model is a replicated dynamic probabilistic model over a fixed set of
// attributes (clique-local indexing).
type Model interface {
	// Dim returns the number of attributes the model covers.
	Dim() int
	// Step advances the model one time step through its transition.
	Step()
	// Mean returns the current expected values — the sink's answer vector.
	Mean() []float64
	// MeanGiven returns the expected values after hypothetically observing
	// obs (attribute index → value), without mutating the model.
	MeanGiven(obs map[int]float64) ([]float64, error)
	// Condition permanently incorporates the observations.
	Condition(obs map[int]float64) error
	// Clone returns an independent deep copy.
	Clone() Model
}

// MeanWriter is implemented by models whose mean can be read without
// allocating. MeanInto writes the same values Mean returns into dst
// (which must have length Dim()); hot replay loops use it with a reused
// buffer to keep suppressed epochs allocation-free.
type MeanWriter interface {
	MeanInto(dst []float64) error
}

// Sampler is implemented by models that can generate synthetic data from
// themselves; Monte Carlo data-reduction estimation (§4.4) requires it.
type Sampler interface {
	Model
	// SampleState draws a ground-truth vector from the current state.
	SampleState(rng *rand.Rand) ([]float64, error)
	// SampleNext draws x(t+1) given ground truth x(t) from the transition.
	SampleNext(x []float64, rng *rand.Rand) ([]float64, error)
}

// IncrementalConditioner is implemented by models that can answer the
// greedy report search's "what if I also reported x_i?" questions
// incrementally: the hypothetical observed set grows by one attribute per
// round, and the model keeps the conditioning factorization cached between
// rounds instead of refactorizing from scratch on every evaluation
// (O(m²) per round instead of O(m³) plus allocations).
//
// The evaluator is a read-only view: none of the three methods may mutate
// the model's replicated state. Implementations cache against their
// current state generation and must fail (rather than answer stale) if the
// model mutates between calls; callers treat any error from CondAdd or
// CondMeanInto as "fall back to the from-scratch MeanGiven path", which
// remains the reference semantics.
type IncrementalConditioner interface {
	Model
	// CondReset begins a new hypothetical observed set, empty.
	CondReset() error
	// CondAdd adds attribute i at value v to the hypothetical set.
	CondAdd(i int, v float64) error
	// CondMeanInto writes the full-length conditional mean given the
	// current hypothetical set into dst (length Dim()): observed positions
	// take their hypothesised values, the rest their conditional
	// expectations — the same answer as MeanGiven on the equivalent map,
	// to numerical tolerance.
	CondMeanInto(dst []float64) error
}

// ErrDim is returned when an observation or bound vector has the wrong
// dimensionality for the model.
var ErrDim = errors.New("model: dimension mismatch")

// checkObs validates observation indices against dim.
func checkObs(obs map[int]float64, dim int) error {
	for i, v := range obs {
		if i < 0 || i >= dim {
			return fmt.Errorf("%w: observation index %d out of range %d", ErrDim, i, dim)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: observation %d is not finite: %v", i, v)
		}
	}
	return nil
}

// ChooseReportGreedy finds a small attribute subset whose values, when
// reported, make every prediction ε-accurate (source step 4(a), §3.2).
// It greedily adds the attribute with the largest normalised violation
// |X̂_i − x_i|/ε_i until all predictions are within bounds. Reporting every
// attribute always satisfies the bounds, so the loop terminates in at most
// Dim() rounds. The returned map is empty when the unconditioned prediction
// is already accurate.
//
// avail, when non-nil, is an availability mask for partial observability:
// only attributes with avail[i] set — clique members whose readings reached
// the root; others may be dead or their collection messages lost — are
// checked against ε and eligible for reporting. The rest are left to the
// model and their truth entries are ignored. nil means every attribute is
// available.
func ChooseReportGreedy(m Model, truth, eps []float64, avail []bool) (map[int]float64, error) {
	n := m.Dim()
	if len(truth) != n || len(eps) != n || (avail != nil && len(avail) != n) {
		return nil, fmt.Errorf("%w: truth %d, eps %d, avail %d, model %d", ErrDim, len(truth), len(eps), len(avail), n)
	}
	// The first round of the search scans every attribute, so a
	// non-positive ε is always a definitive error regardless of which
	// evaluation path answers the rounds.
	for i := range eps {
		if eps[i] <= 0 {
			return nil, fmt.Errorf("model: non-positive epsilon %v for attribute %d", eps[i], i)
		}
	}
	// On models with the incremental evaluator each round grows its cached
	// factorization by one attribute instead of reconditioning from
	// scratch; the selection rule is the same. If the evaluator declines
	// (stale cache, degenerate pivot with no jitter ladder, …) the search
	// restarts on the from-scratch MeanGiven path, the reference semantics.
	ic, _ := m.(IncrementalConditioner)
	if ic != nil && ic.CondReset() != nil {
		ic = nil
	}
	mean := make([]float64, n)
	obs := map[int]float64{}
	for len(obs) < n {
		if ic != nil && ic.CondMeanInto(mean) != nil {
			ic = nil
			clear(obs)
		}
		if ic == nil {
			var err error
			if mean, err = m.MeanGiven(obs); err != nil {
				return nil, err
			}
		}
		worst := worstViolation(mean, truth, eps, avail, obs)
		if worst < 0 {
			break
		}
		if ic != nil && ic.CondAdd(worst, truth[worst]) != nil {
			ic = nil
			clear(obs)
			continue
		}
		obs[worst] = truth[worst]
	}
	return obs, nil
}

// worstViolation returns the available, not yet observed attribute with
// the largest normalised violation above 1 (the lowest index on ties), or
// -1 when every such prediction is within its bound.
func worstViolation(mean, truth, eps []float64, avail []bool, obs map[int]float64) int {
	worst, worstRatio := -1, 1.0
	for i := range mean {
		if avail != nil && !avail[i] {
			continue
		}
		if _, ok := obs[i]; ok {
			continue
		}
		if r := math.Abs(mean[i]-truth[i]) / eps[i]; r > worstRatio {
			worst, worstRatio = i, r
		}
	}
	return worst
}

// ChooseReportExhaustive finds the smallest subset (breaking ties by the
// first found in index order) whose reporting restores ε-accuracy, by
// enumerating subsets in order of increasing size. Exponential in Dim();
// intended for small cliques and for validating the greedy heuristic.
func ChooseReportExhaustive(m Model, truth, eps []float64) (map[int]float64, error) {
	n := m.Dim()
	if len(truth) != n || len(eps) != n {
		return nil, fmt.Errorf("%w: truth %d, eps %d, model %d", ErrDim, len(truth), len(eps), n)
	}
	if n > 20 {
		return nil, fmt.Errorf("model: exhaustive subset search infeasible for dim %d", n)
	}
	for i := range eps {
		if eps[i] <= 0 {
			return nil, fmt.Errorf("model: non-positive epsilon %v for attribute %d", eps[i], i)
		}
	}
	for size := 0; size <= n; size++ {
		found, err := searchSubsets(m, truth, eps, size)
		if err != nil {
			return nil, err
		}
		if found != nil {
			return found, nil
		}
	}
	// Unreachable: the full set always satisfies the bounds.
	return nil, errors.New("model: no satisfying subset found")
}

// searchSubsets tries every subset of exactly the given size.
func searchSubsets(m Model, truth, eps []float64, size int) (map[int]float64, error) {
	n := m.Dim()
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	for {
		obs := make(map[int]float64, size)
		for _, i := range idx {
			obs[i] = truth[i]
		}
		mean, err := m.MeanGiven(obs)
		if err != nil {
			return nil, err
		}
		if withinBounds(mean, truth, eps) {
			return obs, nil
		}
		// Next combination in lexicographic order.
		i := size - 1
		for i >= 0 && idx[i] == n-size+i {
			i--
		}
		if i < 0 {
			return nil, nil
		}
		idx[i]++
		for j := i + 1; j < size; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// withinBounds reports whether every |mean_i − truth_i| ≤ eps_i.
func withinBounds(mean, truth, eps []float64) bool {
	for i := range mean {
		if math.Abs(mean[i]-truth[i]) > eps[i] {
			return false
		}
	}
	return true
}
