package model

import (
	"math"
	"math/rand"
	"testing"
)

// driftData synthesises a 2-attribute diurnal series whose amplitude and
// mean level shift permanently at the midpoint — the environment drifting
// away from what the initial training window saw.
func driftData(seed int64, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, steps)
	w1, w2 := 0.0, 0.0
	for t := range data {
		amp, base := 1.5, 20.0
		if t >= steps/2 {
			amp, base = 3.2, 22.5 // season change
		}
		diurnal := amp * math.Sin(2*math.Pi*float64(t)/24)
		w1 = 0.75*w1 + 0.3*rng.NormFloat64()
		w2 = 0.75*w2 + 0.3*rng.NormFloat64()
		shared := 0.25 * rng.NormFloat64()
		data[t] = []float64{base + diurnal + w1 + shared, base + 0.4 + diurnal + w2 + shared}
	}
	return data
}

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(nil, AdaptiveConfig{}); err == nil {
		t.Fatal("expected error for nil inner model")
	}
	data := driftData(1, 200)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdaptive(lg, AdaptiveConfig{RefitEvery: 1, Window: 2}); err == nil {
		t.Fatal("expected error for tiny window")
	}
}

func TestAdaptiveReplicaLockstep(t *testing.T) {
	data := driftData(2, 400)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(lg, AdaptiveConfig{RefitEvery: 48, Window: 96, Fit: FitConfig{Period: 24}})
	if err != nil {
		t.Fatal(err)
	}
	src := a.Clone()
	sink := a.Clone()
	eps := []float64{0.5, 0.5}
	for _, row := range data[100:300] {
		src.Step()
		sink.Step()
		obs, err := ChooseReportGreedy(src, row, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Condition(obs); err != nil {
			t.Fatal(err)
		}
		if err := sink.Condition(obs); err != nil {
			t.Fatal(err)
		}
		ma, mb := src.Mean(), sink.Mean()
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("adaptive replicas diverged: %v vs %v", ma, mb)
			}
		}
	}
}

func TestAdaptiveGuaranteeHolds(t *testing.T) {
	data := driftData(3, 600)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(lg, AdaptiveConfig{RefitEvery: 72, Window: 144, Fit: FitConfig{Period: 24}})
	if err != nil {
		t.Fatal(err)
	}
	m := a.Clone()
	eps := []float64{0.5, 0.5}
	for step, row := range data[100:] {
		m.Step()
		obs, err := ChooseReportGreedy(m, row, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Condition(obs); err != nil {
			t.Fatal(err)
		}
		if !withinBounds(m.Mean(), row, eps) {
			t.Fatalf("step %d: adaptive model violated ε after conditioning", step)
		}
	}
}

func TestAdaptiveBeatsStaticUnderDrift(t *testing.T) {
	// After the mid-series season change, the static model's seasonal
	// profile and level are stale; the adaptive model relearns them from
	// the sink-visible stream and should report less on the second half.
	data := driftData(4, 1400)
	train := data[:100]
	test := data[100:]
	half := len(test) / 2
	eps := []float64{0.5, 0.5}

	lg, err := FitLinearGaussian(train, FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}

	run := func(m Model) (first, second float64) {
		sentFirst, sentSecond := 0, 0
		for i, row := range test {
			m.Step()
			obs, err := ChooseReportGreedy(m, row, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Condition(obs); err != nil {
				t.Fatal(err)
			}
			if i < half {
				sentFirst += len(obs)
			} else {
				sentSecond += len(obs)
			}
		}
		den := float64(half * 2)
		return float64(sentFirst) / den, float64(sentSecond) / den
	}

	_, staticSecond := run(lg.Clone())
	adaptive, err := NewAdaptive(lg, AdaptiveConfig{RefitEvery: 96, Window: 240, Fit: FitConfig{Period: 24}})
	if err != nil {
		t.Fatal(err)
	}
	_, adaptiveSecond := run(adaptive.Clone())

	if adaptiveSecond >= staticSecond {
		t.Fatalf("adaptive (%v) should report less than static (%v) after the drift",
			adaptiveSecond, staticSecond)
	}
}

func TestAdaptiveRefitKeepsPhase(t *testing.T) {
	// After a refit the clock (and therefore the diurnal phase) must stay
	// aligned with absolute time.
	data := driftData(5, 500)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(lg, AdaptiveConfig{RefitEvery: 50, Window: 100, Fit: FitConfig{Period: 24}})
	if err != nil {
		t.Fatal(err)
	}
	m := a.Clone().(*Adaptive)
	eps := []float64{0.5, 0.5}
	for _, row := range data[100:300] {
		m.Step()
		obs, err := ChooseReportGreedy(m, row, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Condition(obs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.inner.Clock(), 99+200; got != want {
		t.Fatalf("clock = %d, want %d", got, want)
	}
}
