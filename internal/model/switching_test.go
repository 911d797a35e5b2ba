package model

import (
	"math"
	"math/rand"
	"testing"
)

// regimeData synthesises a 2-attribute series that flips between two level
// regimes (like the lab's HVAC) with small AR noise.
func regimeData(seed int64, steps int, gap float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, steps)
	level := 0.0
	w1, w2 := 0.0, 0.0
	for t := range data {
		// Sticky regime: flip with 2% probability per step.
		if rng.Float64() < 0.02 {
			if level == 0 {
				level = -gap
			} else {
				level = 0
			}
		}
		w1 = 0.7*w1 + 0.35*rng.NormFloat64()
		w2 = 0.7*w2 + 0.35*rng.NormFloat64()
		data[t] = []float64{20 + level + w1, 20.5 + level + w2}
	}
	return data
}

func TestFitSwitchingValidation(t *testing.T) {
	if _, err := FitSwitching(regimeData(1, 5, 2), SwitchingConfig{Regimes: 2}); err == nil {
		t.Fatal("expected error for too few rows")
	}
	if _, err := FitSwitching(regimeData(1, 100, 2), SwitchingConfig{Regimes: 1}); err == nil {
		t.Fatal("expected error for 1 regime")
	}
}

func TestSwitchingRecoversRegimeGap(t *testing.T) {
	data := regimeData(2, 600, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Regimes() != 2 {
		t.Fatalf("regimes = %d", s.Regimes())
	}
	// The two learned offsets should be ~3 apart on each attribute.
	gap0 := math.Abs(s.offsets[0][0] - s.offsets[1][0])
	if gap0 < 2 || gap0 > 4 {
		t.Fatalf("recovered regime gap %v, want ~3", gap0)
	}
}

func TestSwitchingPosteriorTracksRegime(t *testing.T) {
	data := regimeData(3, 600, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Clone().(*Switching)
	// Feed observations deep in one regime; the posterior must commit.
	m.Step()
	lowRegime := 0
	if s.offsets[1][0] < s.offsets[0][0] {
		lowRegime = 1
	}
	for i := 0; i < 5; i++ {
		m.Step()
		base := m.base.Mean()
		if err := m.Condition(map[int]float64{0: base[0] + m.offsets[lowRegime][0]}); err != nil {
			t.Fatal(err)
		}
	}
	if p := m.probs; p[lowRegime] < 0.7 {
		t.Fatalf("posterior did not track the regime: %v", p)
	}
}

func TestSwitchingReplicaLockstep(t *testing.T) {
	data := regimeData(4, 500, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := s.Clone()
	sink := s.Clone()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 40; step++ {
		src.Step()
		sink.Step()
		obs := map[int]float64{}
		if rng.Intn(2) == 0 {
			obs[rng.Intn(2)] = 18 + 3*rng.Float64()
		}
		if err := src.Condition(obs); err != nil {
			t.Fatal(err)
		}
		if err := sink.Condition(obs); err != nil {
			t.Fatal(err)
		}
		a, b := src.Mean(), sink.Mean()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replicas diverged at step %d: %v vs %v", step, a, b)
			}
		}
	}
}

func TestSwitchingMeanGivenExactOnObserved(t *testing.T) {
	data := regimeData(6, 500, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Clone()
	m.Step()
	cm, err := m.MeanGiven(map[int]float64{1: 17.5})
	if err != nil {
		t.Fatal(err)
	}
	if cm[1] != 17.5 {
		t.Fatalf("observed attribute = %v, want exact", cm[1])
	}
	if _, err := m.MeanGiven(map[int]float64{9: 1}); err == nil {
		t.Fatal("expected error for out-of-range observation")
	}
}

// replayReported runs the Ken source loop over rows and returns the
// fraction of values reported.
func replayReported(t *testing.T, m Model, rows [][]float64, eps []float64) float64 {
	t.Helper()
	sent := 0
	for _, row := range rows {
		m.Step()
		obs, err := ChooseReportGreedy(m, row, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Condition(obs); err != nil {
			t.Fatal(err)
		}
		sent += len(obs)
	}
	return float64(sent) / float64(len(rows)*len(rows[0]))
}

func TestSwitchingBeatsPlainGaussianOnRegimeData(t *testing.T) {
	// The §6 motivation: on regime-switching data a single Gaussian
	// straddles the two levels; the switching model should report less.
	all := regimeData(7, 1500, 4)
	train, test := all[:500], all[500:]
	eps := []float64{0.5, 0.5}

	plain, err := FitLinearGaussian(train, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plainFrac := replayReported(t, plain.Clone(), test, eps)

	sw, err := FitSwitching(train, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	swFrac := replayReported(t, sw.Clone(), test, eps)

	if swFrac >= plainFrac {
		t.Fatalf("switching (%v) should report less than plain Gaussian (%v)", swFrac, plainFrac)
	}
}

func TestSwitchingGuaranteeAfterConditioning(t *testing.T) {
	// Regardless of regime confusion, conditioning on the minimal report
	// set must restore ε-accuracy (the Ken invariant).
	all := regimeData(8, 900, 3)
	train, test := all[:300], all[300:]
	eps := []float64{0.5, 0.5}
	sw, err := FitSwitching(train, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := sw.Clone()
	for step, row := range test {
		m.Step()
		obs, err := ChooseReportGreedy(m, row, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Condition(obs); err != nil {
			t.Fatal(err)
		}
		if !withinBounds(m.Mean(), row, eps) {
			t.Fatalf("step %d: post-report prediction violates ε", step)
		}
	}
}

func TestKMeans1D(t *testing.T) {
	vals := []float64{0, 0.1, -0.1, 5, 5.1, 4.9}
	labels, centers := kmeans1D(vals, 2, 20)
	if labels[0] == labels[3] {
		t.Fatalf("clusters not separated: %v", labels)
	}
	lo, hi := centers[0], centers[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo) > 0.2 || math.Abs(hi-5) > 0.2 {
		t.Fatalf("centers = %v", centers)
	}
}
