package model

import (
	"math"
	"math/rand"
	"testing"

	"ken/internal/trace"
)

// gardenCols extracts the first n temperature columns of the garden trace.
func gardenCols(t *testing.T, steps, n int) [][]float64 {
	t.Helper()
	tr, err := trace.GenerateGarden(31, steps)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r[:n]...)
	}
	return out
}

// hideIC wraps a model so only the plain Model interface is visible,
// forcing ChooseReportGreedy onto the from-scratch MeanGiven path.
type hideIC struct{ Model }

// The greedy search through the cached incremental evaluator must choose
// the same report sets as the from-scratch reference path on real replayed
// data — the selection rule is identical and the evaluation paths agree to
// ~1e-12, far below any realistic violation-ratio tie.
func TestChooseReportGreedyIncrementalMatchesScratch(t *testing.T) {
	const n = 6
	data := gardenCols(t, 160, n)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.35
	}
	reports, nonEmpty := 0, 0
	for step := 100; step < 160; step++ {
		lg.Step()
		truth := data[step]
		fast, err := ChooseReportGreedy(lg, truth, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ChooseReportGreedy(hideIC{lg}, truth, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("step %d: incremental chose %v, scratch chose %v", step, fast, slow)
		}
		for i, v := range fast {
			if sv, ok := slow[i]; !ok || sv != v {
				t.Fatalf("step %d: incremental chose %v, scratch chose %v", step, fast, slow)
			}
		}
		if err := lg.Condition(fast); err != nil {
			t.Fatal(err)
		}
		reports++
		if len(fast) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("no report across %d epochs — the search was never exercised; tighten eps", reports)
	}
}

// The model-level evaluator must match MeanGiven for the same growing
// observed set without mutating the model.
func TestLinearGaussianCondEvaluatorMatchesMeanGiven(t *testing.T) {
	const n = 5
	data := gardenCols(t, 120, n)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	lg.Step()
	meanBefore := lg.Mean()
	if err := lg.CondReset(); err != nil {
		t.Fatal(err)
	}
	obs := map[int]float64{}
	dst := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for _, i := range []int{3, 0, 4} {
		v := meanBefore[i] + rng.NormFloat64()
		if err := lg.CondAdd(i, v); err != nil {
			t.Fatal(err)
		}
		obs[i] = v
		if err := lg.CondMeanInto(dst); err != nil {
			t.Fatal(err)
		}
		want, err := lg.MeanGiven(obs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Abs(dst[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("CondMeanInto[%d] = %v, MeanGiven = %v", k, dst[k], want[k])
			}
		}
	}
	after := lg.Mean()
	for i := range after {
		if after[i] != meanBefore[i] {
			t.Fatal("evaluator mutated the model state")
		}
	}
}

// The workspace generation must tick on Step and Condition (state
// mutations) and stay put across read-only evaluations: a mutation
// mid-evaluation makes the evaluator refuse rather than answer stale, a
// read-only one does not, and the greedy search still succeeds by
// re-seeding.
func TestLinearGaussianGenerationAndStaleness(t *testing.T) {
	const n = 4
	data := gardenCols(t, 120, n)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	mutations := []struct {
		name   string
		mutate func() error
	}{
		{"Step", func() error { lg.Step(); return nil }},
		{"Condition", func() error { return lg.Condition(map[int]float64{1: 20}) }},
	}
	for _, mu := range mutations {
		if err := lg.CondReset(); err != nil {
			t.Fatal(err)
		}
		if err := mu.mutate(); err != nil {
			t.Fatal(err)
		}
		if err := lg.CondMeanInto(dst); err == nil {
			t.Fatalf("CondMeanInto answered from a stale cache after %s", mu.name)
		}
	}
	if err := lg.CondReset(); err != nil {
		t.Fatal(err)
	}
	if err := lg.CondAdd(0, 19); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.MeanGiven(map[int]float64{0: 19}); err != nil {
		t.Fatal(err)
	}
	if err := lg.CondMeanInto(dst); err != nil {
		t.Fatalf("CondMeanInto refused after read-only evaluation: %v", err)
	}
	// Mutate mid-evaluation: the evaluator must go stale.
	lg.Step()
	if err := lg.CondMeanInto(dst); err == nil {
		t.Fatal("CondMeanInto answered from a stale cache after Step")
	}
	// The public search path recovers transparently (CondReset re-seeds).
	truth := data[102]
	eps := []float64{0.01, 0.01, 0.01, 0.01}
	if _, err := ChooseReportGreedy(lg, truth, eps, nil); err != nil {
		t.Fatal(err)
	}
}
