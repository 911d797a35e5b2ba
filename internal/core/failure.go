package core

import (
	"fmt"
	"math"

	"ken/internal/obs"
)

// FailureDetector implements §6 "Detection of Node Failures": when the base
// station has not heard from a node (or clique) for a while, it must decide
// between "the data is simply within bounds" and "the node is dead". Ken's
// probabilistic machinery gives a principled answer: under the fitted
// model, a report arrives each step with probability ≈ rate, so a silence
// of s steps has probability (1 − rate)^s. The detector raises suspicion
// once that probability falls below alpha.
type FailureDetector struct {
	rate   float64
	alpha  float64
	silent int

	tracer    *obs.Tracer
	clique    int
	node      int
	steps     int64
	suspected bool
}

// NewFailureDetector builds a detector for a source whose expected per-step
// report probability is rate (e.g. the Monte Carlo m_C of the node's
// clique, capped at 1), with false-positive level alpha.
func NewFailureDetector(rate, alpha float64) (*FailureDetector, error) {
	if rate <= 0 || rate >= 1 {
		return nil, fmt.Errorf("core: report rate %v must be in (0,1)", rate)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v must be in (0,1)", alpha)
	}
	return &FailureDetector{rate: rate, alpha: alpha, clique: -1}, nil
}

// Instrument attaches protocol tracing for the clique/node this detector
// watches (clique -1 when the detector guards a single node): each time
// silence newly crosses the suspicion threshold, one EvSuspect event is
// emitted (N carries the silence length; the payload carries the silence
// probability against its alpha bound). Resolve the tracer once at setup,
// not per step.
func (d *FailureDetector) Instrument(tr *obs.Tracer, clique, node int) {
	d.tracer = tr
	d.clique = clique
	d.node = node
}

// Observe records whether a report arrived this step and returns true when
// the accumulated silence is too improbable for a live node.
func (d *FailureDetector) Observe(reported bool) bool {
	d.steps++
	if reported {
		d.silent = 0
		d.suspected = false
		return false
	}
	d.silent++
	s := d.Suspect()
	if s && !d.suspected {
		d.suspected = true
		if d.tracer != nil {
			d.tracer.Emit(obs.Event{
				Type: obs.EvSuspect, Step: d.steps - 1, Clique: d.clique, Node: d.node,
				N: d.silent,
				Payload: &obs.Payload{
					Observed: []float64{math.Pow(1-d.rate, float64(d.silent))},
					Eps:      []float64{d.alpha},
				},
			})
		}
	}
	return s
}

// Suspect reports the current verdict without consuming a step.
func (d *FailureDetector) Suspect() bool {
	return float64(d.silent)*math.Log1p(-d.rate) < math.Log(d.alpha)
}

// SilenceThreshold returns the smallest silence length that triggers
// suspicion — useful for documentation and tests. Suspect uses a strict
// inequality, so the threshold is the first integer strictly beyond the
// ratio log(alpha)/log1p(-rate): Floor(ratio)+1, not Ceil(ratio), which
// undercounts by one exactly when the ratio is integral.
func (d *FailureDetector) SilenceThreshold() int {
	return int(math.Floor(math.Log(d.alpha)/math.Log1p(-d.rate))) + 1
}
