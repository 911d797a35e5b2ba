package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ken/internal/core"
	"ken/internal/deploy"
	"ken/internal/model"
	"ken/internal/obs"
)

// replayDriver replays a deployment's readings window through core.Run,
// building a fresh scheme for every pass outside the timed region.
type replayDriver struct {
	dep    *deploy.Deployment
	window [][]float64
}

// replayPass is what one core.Run pass produced and took.
type replayPass struct {
	elapsed   time.Duration
	res       *core.Result
	digest    digest
	reporting int // epochs with at least one report
}

func (r *replayDriver) scheme(tr *tracer, counts *modelCounts) (core.Scheme, error) {
	cfg := r.dep.Config
	spec := core.SchemeSpec{
		Scheme:    fmt.Sprintf("DjC%d", r.dep.Partition.MaxCliqueSize()),
		Eps:       cfg.Eps,
		Train:     cfg.Train,
		FitCfg:    cfg.FitCfg,
		Partition: r.dep.Partition,
	}
	if tr != nil {
		// The factory builds exactly the model the default one would, and
		// the wrapper forwards MeanWriter and IncrementalConditioner, so
		// core takes the same code path with the model calls timed.
		spec.ModelFactory = func(train [][]float64) (model.Model, error) {
			m, err := model.FitLinearGaussian(train, cfg.FitCfg)
			if err != nil {
				return nil, err
			}
			return newTimedModel(m, tr, counts), nil
		}
	}
	return core.Build(spec)
}

// pass runs one core.Run over the window on a fresh scheme, built before
// the runtime counters are read. lat receives every epoch's Step latency
// in microseconds; tr, when non-nil, records the core and model spans and
// counts accumulates the model's search counters.
func (r *replayDriver) pass(tr *tracer, counts *modelCounts, lat *samples, rt *rtDelta) (replayPass, error) {
	s, err := r.scheme(tr, counts)
	if err != nil {
		return replayPass{}, err
	}
	ts := &timedScheme{Scheme: s, tr: tr, lat: lat}
	before := readRuntime()
	tr.open("core.run", -1)
	start := time.Now()
	res, err := core.Run(context.Background(), ts, r.window, core.RunOptions{Eps: r.dep.Config.Eps})
	elapsed := time.Since(start)
	tr.close()
	rt.add(before, readRuntime())
	if err != nil {
		return replayPass{}, err
	}
	out := replayPass{elapsed: elapsed, res: res, digest: newDigest()}
	var attrs []int
	for t, rep := range res.ReportedAttrs {
		attrs = append(attrs[:0], rep...)
		sort.Ints(attrs)
		out.digest.word(uint64(t))
		for _, a := range attrs {
			out.digest.word(uint64(a))
		}
		if len(rep) > 0 {
			out.reporting++
		}
	}
	return out, nil
}

// timedScheme times every Step of the scheme core.Run drives: the
// latency from an epoch's readings to the sink's answer for it.
type timedScheme struct {
	core.Scheme
	tr    *tracer
	lat   *samples
	epoch int64
}

func (s *timedScheme) Step(truth []float64) ([]float64, core.StepStats, error) {
	s.tr.open("core.step", s.epoch)
	start := time.Now()
	est, st, err := s.Scheme.Step(truth)
	d := time.Since(start)
	s.tr.close()
	s.lat.add(float64(d.Nanoseconds()) / 1e3)
	s.epoch++
	return est, st, err
}

// BeginEpoch forwards core's epoch span so Run drives the scheme exactly
// as it would unwrapped.
func (s *timedScheme) BeginEpoch(sp *obs.Span) {
	if es, ok := s.Scheme.(core.EpochScoped); ok {
		es.BeginEpoch(sp)
	}
}

// modelCounts are the search counters shared by a clique's replicas.
type modelCounts struct {
	searches  int64 // incremental searches begun (CondReset)
	fallbacks int64 // searches that fell back to MeanGiven
	rounds    int64 // search rounds (CondMeanInto or MeanGiven calls)
	inSearch  bool
	fellBack  bool
}

// timedModel wraps a LinearGaussian and times every call core makes.
type timedModel struct {
	m  *model.LinearGaussian
	tr *tracer
	c  *modelCounts
}

func newTimedModel(m *model.LinearGaussian, tr *tracer, c *modelCounts) *timedModel {
	return &timedModel{m: m, tr: tr, c: c}
}

var (
	_ model.MeanWriter             = (*timedModel)(nil)
	_ model.IncrementalConditioner = (*timedModel)(nil)
)

func (t *timedModel) Dim() int { return t.m.Dim() }

func (t *timedModel) Step() {
	t.tr.open("model.step", -1)
	t.m.Step()
	t.tr.close()
}

func (t *timedModel) Mean() []float64 {
	t.tr.open("model.mean", -1)
	defer t.tr.close()
	return t.m.Mean()
}

func (t *timedModel) MeanGiven(obs map[int]float64) ([]float64, error) {
	if t.c.inSearch && !t.c.fellBack {
		t.c.fellBack = true
		t.c.fallbacks++
	}
	t.c.rounds++
	t.tr.open("model.mean_given", -1)
	defer t.tr.close()
	return t.m.MeanGiven(obs)
}

func (t *timedModel) Condition(obs map[int]float64) error {
	t.c.inSearch = false
	if len(obs) == 0 {
		return t.m.Condition(obs)
	}
	t.tr.open("model.condition", -1)
	defer t.tr.close()
	return t.m.Condition(obs)
}

func (t *timedModel) Clone() model.Model {
	return newTimedModel(t.m.Clone().(*model.LinearGaussian), t.tr, t.c)
}

func (t *timedModel) MeanInto(dst []float64) error {
	t.tr.open("model.mean_into", -1)
	defer t.tr.close()
	return t.m.MeanInto(dst)
}

func (t *timedModel) CondReset() error {
	t.c.searches++
	t.c.inSearch, t.c.fellBack = true, false
	t.tr.open("model.cond_reset", -1)
	defer t.tr.close()
	return t.m.CondReset()
}

func (t *timedModel) CondAdd(i int, v float64) error {
	t.tr.open("model.cond_add", -1)
	defer t.tr.close()
	return t.m.CondAdd(i, v)
}

func (t *timedModel) CondMeanInto(dst []float64) error {
	t.c.rounds++
	t.tr.open("model.cond_mean", -1)
	defer t.tr.close()
	return t.m.CondMeanInto(dst)
}
