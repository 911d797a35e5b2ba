// Package deploy assembles ready-to-run Ken deployments from the synthetic
// datasets: it generates the trace, fits and selects a Disjoint-Cliques
// partition, and produces the shared endpoint configuration the streaming
// binaries (kensource, kensinkd, kenswarm) need. Because every step is a
// deterministic function of the flags, two independent processes built
// from the same parameters end up with bit-identical replicas — the
// property the replicated-model protocol depends on.
package deploy

import (
	"fmt"

	"ken/internal/cliques"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/stream"
	"ken/internal/trace"
)

// Params selects and sizes a deployment.
type Params struct {
	// Dataset is "garden" or "lab".
	Dataset string
	// Seed drives trace generation, Monte Carlo estimation and partition
	// selection. Both endpoints must use the same seed.
	Seed int64
	// TrainSteps and TestSteps size the trace (defaults 100 / 500).
	TrainSteps, TestSteps int
	// K caps the Greedy-k clique size (default 2).
	K int
	// Epsilon overrides the attribute default when positive.
	Epsilon float64
	// HeartbeatEvery is forwarded to the stream config.
	HeartbeatEvery int
}

func (p Params) withDefaults() Params {
	if p.Dataset == "" {
		p.Dataset = "garden"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.TrainSteps <= 0 {
		p.TrainSteps = 100
	}
	if p.TestSteps <= 0 {
		p.TestSteps = 500
	}
	if p.K <= 0 {
		p.K = 2
	}
	return p
}

// Deployment is everything both endpoints agree on, plus the test data the
// source streams.
type Deployment struct {
	Params    Params
	N         int
	Partition *cliques.Partition
	Config    stream.Config
	Test      [][]float64
}

// Build assembles the deployment deterministically from the parameters.
func Build(p Params) (*Deployment, error) {
	p = p.withDefaults()
	var (
		tr  *trace.Trace
		err error
	)
	steps := p.TrainSteps + p.TestSteps
	switch p.Dataset {
	case "garden":
		tr, err = trace.GenerateGarden(p.Seed, steps)
	case "lab":
		tr, err = trace.GenerateLab(p.Seed, steps)
	default:
		return nil, fmt.Errorf("deploy: unknown dataset %q (garden or lab)", p.Dataset)
	}
	if err != nil {
		return nil, err
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		return nil, err
	}
	n := tr.Deployment.N()
	train, test := rows[:p.TrainSteps], rows[p.TrainSteps:]
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = trace.Temperature.DefaultEpsilon()
		if p.Epsilon > 0 {
			eps[i] = p.Epsilon
		}
	}

	eval, err := cliques.NewMCEvaluator(train, eps, model.FitConfig{Period: 24},
		mc.Config{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	top, err := network.Uniform(n, 1, 5)
	if err != nil {
		return nil, err
	}
	part, err := cliques.Greedy(top, eval, cliques.GreedyConfig{
		K:      p.K,
		Metric: cliques.MetricReduction,
	})
	if err != nil {
		return nil, err
	}

	return &Deployment{
		Params:    p,
		N:         n,
		Partition: part,
		Config: stream.Config{
			Partition:      part,
			Train:          train,
			Eps:            eps,
			FitCfg:         model.FitConfig{Period: 24},
			HeartbeatEvery: p.HeartbeatEvery,
		},
		Test: test,
	}, nil
}
