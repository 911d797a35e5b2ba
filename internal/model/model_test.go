package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ken/internal/trace"
)

func TestConstantBasics(t *testing.T) {
	c, err := NewConstant([]float64{1, 2}, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 2 {
		t.Fatalf("dim = %d", c.Dim())
	}
	c.Step()
	if m := c.Mean(); m[0] != 1 || m[1] != 2 {
		t.Fatalf("constant model moved: %v", m)
	}
	if err := c.Condition(map[int]float64{1: 7}); err != nil {
		t.Fatal(err)
	}
	if m := c.Mean(); m[1] != 7 || m[0] != 1 {
		t.Fatalf("condition wrong: %v", m)
	}
	mg, err := c.MeanGiven(map[int]float64{0: 9})
	if err != nil {
		t.Fatal(err)
	}
	if mg[0] != 9 || mg[1] != 7 {
		t.Fatalf("MeanGiven = %v", mg)
	}
	// MeanGiven must not mutate.
	if m := c.Mean(); m[0] != 1 {
		t.Fatal("MeanGiven mutated the model")
	}
}

func TestConstantValidation(t *testing.T) {
	if _, err := NewConstant(nil, nil); err == nil {
		t.Fatal("expected error for empty model")
	}
	if _, err := NewConstant([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for SD length mismatch")
	}
	c, _ := NewConstant([]float64{1}, []float64{1})
	if err := c.Condition(map[int]float64{5: 1}); err == nil {
		t.Fatal("expected error for out-of-range observation")
	}
	if err := c.Condition(map[int]float64{0: math.NaN()}); err == nil {
		t.Fatal("expected error for NaN observation")
	}
}

func TestFitConstant(t *testing.T) {
	data := [][]float64{{0}, {1}, {2}, {3}}
	c, err := FitConstant(data)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Mean(); m[0] != 3 {
		t.Fatalf("initial = %v, want last row 3", m)
	}
	// Steps are exactly +1 each: zero innovation variance around the mean step.
	if c.stepSD[0] != 0 {
		t.Fatalf("stepSD = %v, want 0", c.stepSD[0])
	}
	if _, err := FitConstant([][]float64{{1}}); err == nil {
		t.Fatal("expected error for too few rows")
	}
}

func TestConstantClone(t *testing.T) {
	c, _ := NewConstant([]float64{1}, []float64{0.5})
	cl := c.Clone()
	if err := cl.Condition(map[int]float64{0: 42}); err != nil {
		t.Fatal(err)
	}
	if c.Mean()[0] != 1 {
		t.Fatal("clone shares state")
	}
}

func TestConstantSampler(t *testing.T) {
	c, _ := NewConstant([]float64{5}, []float64{2})
	rng := rand.New(rand.NewSource(1))
	s, err := c.SampleState(rng)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 5 {
		t.Fatalf("SampleState = %v", s)
	}
	var sum, sumSq float64
	const N = 5000
	for i := 0; i < N; i++ {
		nx, err := c.SampleNext([]float64{5}, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += nx[0]
		sumSq += (nx[0] - 5) * (nx[0] - 5)
	}
	if m := sum / N; math.Abs(m-5) > 0.1 {
		t.Fatalf("sample mean = %v", m)
	}
	if v := sumSq / N; math.Abs(v-4) > 0.3 {
		t.Fatalf("sample var = %v, want ~4", v)
	}
	if _, err := c.SampleNext([]float64{1, 2}, rng); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestFitLinearRecoversAR1(t *testing.T) {
	// Generate AR(1): x(t+1) = 0.8 x(t) + 3 + noise.
	rng := rand.New(rand.NewSource(2))
	data := make([][]float64, 600)
	x := 15.0
	for i := range data {
		data[i] = []float64{x}
		x = 0.8*x + 3 + 0.2*rng.NormFloat64()
	}
	l, err := FitLinear(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.alpha[0]-0.8) > 0.05 {
		t.Fatalf("alpha = %v, want ~0.8", l.alpha[0])
	}
	if math.Abs(l.beta[0]-3) > 0.8 {
		t.Fatalf("beta = %v, want ~3", l.beta[0])
	}
	if math.Abs(l.resSD[0]-0.2) > 0.05 {
		t.Fatalf("resSD = %v, want ~0.2", l.resSD[0])
	}
}

func TestLinearStepAndCondition(t *testing.T) {
	l, err := NewLinear([]float64{10}, []float64{0.5}, []float64{1}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	l.Step()
	if m := l.Mean(); m[0] != 6 {
		t.Fatalf("step mean = %v, want 0.5*10+1 = 6", m)
	}
	if err := l.Condition(map[int]float64{0: 4}); err != nil {
		t.Fatal(err)
	}
	l.Step()
	if m := l.Mean(); m[0] != 3 {
		t.Fatalf("mean = %v, want 0.5*4+1 = 3", m)
	}
}

func TestFitLinearDegenerateConstantSeries(t *testing.T) {
	data := [][]float64{{5}, {5}, {5}, {5}}
	l, err := FitLinear(data)
	if err != nil {
		t.Fatal(err)
	}
	l.Step()
	if m := l.Mean(); m[0] != 5 {
		t.Fatalf("constant series should stay at 5, got %v", m)
	}
}

func TestLinearValidation(t *testing.T) {
	if _, err := NewLinear(nil, nil, nil, nil); err == nil {
		t.Fatal("expected error for empty model")
	}
	if _, err := NewLinear([]float64{1}, []float64{1, 2}, []float64{0}, []float64{0}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := FitLinear([][]float64{{1}, {2}}); err == nil {
		t.Fatal("expected error for too few rows")
	}
}

func garden2Cols(t *testing.T, steps int) [][]float64 {
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
		out[i] = []float64{r[0], r[1]}
	}
	return out
}

func TestFitLinearGaussianValidation(t *testing.T) {
	if _, err := FitLinearGaussian([][]float64{{1}, {2}, {3}}, FitConfig{}); err == nil {
		t.Fatal("expected error for too few rows")
	}
	if _, err := FitLinearGaussian([][]float64{{1}, {2}, {3}, {}}, FitConfig{}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestLinearGaussianReplicaLockstep(t *testing.T) {
	// The replicated-model invariant: two clones stepped and conditioned
	// identically give identical predictions forever.
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	src := lg.Clone()
	sink := lg.Clone()
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20; step++ {
		src.Step()
		sink.Step()
		obs := map[int]float64{}
		if rng.Intn(2) == 0 {
			obs[rng.Intn(2)] = 20 + rng.NormFloat64()
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

func TestLinearGaussianConditionExactAndCorrelated(t *testing.T) {
	data := garden2Cols(t, 150)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone().(*LinearGaussian)
	m.Step()
	before := m.Mean()
	obsVal := before[0] + 2 // report a value 2 degrees above prediction
	if err := m.Condition(map[int]float64{0: obsVal}); err != nil {
		t.Fatal(err)
	}
	after := m.Mean()
	if math.Abs(after[0]-obsVal) > 1e-9 {
		t.Fatalf("observed attribute not exact: %v vs %v", after[0], obsVal)
	}
	// Spatial correlation: the unobserved neighbour must move toward the
	// reported deviation (garden nodes 0 and 1 are strongly correlated).
	if after[1] <= before[1] {
		t.Fatalf("correlated attribute did not move: before %v after %v", before[1], after[1])
	}
}

func TestLinearGaussianPredictsDiurnalCycle(t *testing.T) {
	// With no reports at all, the seasonal profile should keep hourly
	// predictions within a couple of degrees on held-out data.
	data := garden2Cols(t, 24*20)
	train, test := data[:24*14], data[24*14:]
	lg, err := FitLinearGaussian(train, FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone()
	var sumAbs float64
	var count int
	for _, row := range test {
		m.Step()
		mean := m.Mean()
		for i := range row {
			sumAbs += math.Abs(mean[i] - row[i])
			count++
		}
	}
	if mae := sumAbs / float64(count); mae > 2.5 {
		t.Fatalf("unconditioned MAE = %v, seasonal model should track the cycle", mae)
	}
}

func TestLinearGaussianClockAndClone(t *testing.T) {
	data := garden2Cols(t, 60)
	lg, err := FitLinearGaussian(data[:50], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if lg.Clock() != 49 {
		t.Fatalf("clock = %d, want 49", lg.Clock())
	}
	cl := lg.Clone().(*LinearGaussian)
	cl.Step()
	if lg.Clock() != 49 || cl.Clock() != 50 {
		t.Fatalf("clone clock coupling: %d, %d", lg.Clock(), cl.Clock())
	}
}

func TestLinearGaussianSampler(t *testing.T) {
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x, err := lg.SampleState(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 2 {
		t.Fatalf("sample dim = %d", len(x))
	}
	nx, err := lg.SampleNext(x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(nx) != 2 {
		t.Fatalf("next dim = %d", len(nx))
	}
	// Samples stay in a physically plausible band.
	for _, v := range nx {
		if v < -20 || v > 60 {
			t.Fatalf("implausible sampled temperature %v", v)
		}
	}
	if _, err := lg.SampleNext([]float64{1}, rng); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestSeasonalProfileFallback(t *testing.T) {
	// 10 rows with period 24: cannot cover two cycles, must fall back to a
	// single global phase.
	data := make([][]float64, 10)
	for i := range data {
		data[i] = []float64{float64(i)}
	}
	profile, period := seasonalProfile(data, 24)
	if period != 1 || len(profile) != 1 {
		t.Fatalf("period = %d, profile rows = %d; want 1, 1", period, len(profile))
	}
	if math.Abs(profile[0][0]-4.5) > 1e-12 {
		t.Fatalf("global mean = %v, want 4.5", profile[0][0])
	}
}

func TestChooseReportGreedyEmptyWhenAccurate(t *testing.T) {
	c, _ := NewConstant([]float64{1, 2}, []float64{0, 0})
	obs, err := ChooseReportGreedy(c, []float64{1.1, 2.1}, []float64{0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 0 {
		t.Fatalf("report = %v, want empty", obs)
	}
}

func TestChooseReportGreedyIndependent(t *testing.T) {
	c, _ := NewConstant([]float64{0, 0, 0}, []float64{0, 0, 0})
	truth := []float64{5, 0.1, -3}
	eps := []float64{0.5, 0.5, 0.5}
	obs, err := ChooseReportGreedy(c, truth, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Independent model: exactly the two violating attributes.
	if len(obs) != 2 {
		t.Fatalf("report = %v, want 2 attributes", obs)
	}
	if _, ok := obs[0]; !ok {
		t.Fatal("attribute 0 should be reported")
	}
	if _, ok := obs[2]; !ok {
		t.Fatal("attribute 2 should be reported")
	}
}

func TestChooseReportUsesCorrelation(t *testing.T) {
	// Strongly correlated pair where both predictions are off by the same
	// shared shift: reporting one attribute should fix both (the paper's
	// Figure 2 walk-through).
	data := garden2Cols(t, 200)
	lg, err := FitLinearGaussian(data[:180], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone()
	m.Step()
	mean := m.Mean()
	truth := []float64{mean[0] + 1.2, mean[1] + 1.2}
	eps := []float64{0.5, 0.5}
	obs, err := ChooseReportGreedy(m, truth, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("report = %v, want a single attribute via spatial correlation", obs)
	}
	// And the guarantee holds after conditioning.
	if err := m.Condition(obs); err != nil {
		t.Fatal(err)
	}
	if !withinBounds(m.Mean(), truth, eps) {
		t.Fatal("post-report predictions violate ε")
	}
}

func TestChooseReportExhaustiveMatchesOrBeatsGreedy(t *testing.T) {
	data := garden2Cols(t, 200)
	lg, err := FitLinearGaussian(data[:180], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := lg.Clone()
		m.Step()
		mean := m.Mean()
		truth := []float64{mean[0] + rng.NormFloat64()*1.5, mean[1] + rng.NormFloat64()*1.5}
		eps := []float64{0.5, 0.5}
		g, err := ChooseReportGreedy(m, truth, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ChooseReportExhaustive(m, truth, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(e) > len(g) {
			t.Fatalf("exhaustive (%d) worse than greedy (%d)", len(e), len(g))
		}
		// Both must satisfy the bound.
		for _, obs := range []map[int]float64{g, e} {
			mm, err := m.MeanGiven(obs)
			if err != nil {
				t.Fatal(err)
			}
			if !withinBounds(mm, truth, eps) {
				t.Fatalf("report set %v does not restore accuracy", obs)
			}
		}
	}
}

func TestChooseReportValidation(t *testing.T) {
	c, _ := NewConstant([]float64{0}, []float64{0})
	if _, err := ChooseReportGreedy(c, []float64{1, 2}, []float64{1}, nil); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := ChooseReportGreedy(c, []float64{9}, []float64{0}, nil); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := ChooseReportExhaustive(c, []float64{9}, []float64{-1}); err == nil {
		t.Fatal("expected error for negative epsilon")
	}
	if _, err := ChooseReportExhaustive(c, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestChooseReportGreedyPartial(t *testing.T) {
	c, _ := NewConstant([]float64{0, 0, 0}, []float64{0, 0, 0})
	eps := []float64{0.5, 0.5, 0.5}
	// Attribute 0 violates but is unavailable (its truth entry is ignored,
	// even when not finite); attribute 2 violates and is available: only 2
	// can be reported.
	truth := []float64{math.NaN(), 0.1, 5}
	avail := []bool{false, true, true}
	obs, err := ChooseReportGreedy(c, truth, eps, avail)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("obs = %v, want only attribute 2", obs)
	}
	if _, ok := obs[2]; !ok {
		t.Fatalf("obs = %v, want attribute 2", obs)
	}
	// No available attributes: nothing to send.
	obs, err = ChooseReportGreedy(c, truth, eps, make([]bool, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 0 {
		t.Fatalf("obs = %v, want empty", obs)
	}
	// Validation.
	if _, err := ChooseReportGreedy(c, truth, eps, []bool{true}); err == nil {
		t.Fatal("expected error for a mask of the wrong length")
	}
	if _, err := ChooseReportGreedy(c, []float64{5, 0, 0}, []float64{0, 1, 1}, []bool{true, false, false}); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := ChooseReportGreedy(c, truth, []float64{1}, avail); err == nil {
		t.Fatal("expected error for eps dim mismatch")
	}
}

func TestChooseReportGreedyPartialMatchesFullWhenAllAvailable(t *testing.T) {
	data := garden2Cols(t, 200)
	lg, err := FitLinearGaussian(data[:180], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m := lg.Clone()
		m.Step()
		mean := m.Mean()
		truth := []float64{mean[0] + rng.NormFloat64(), mean[1] + rng.NormFloat64()}
		eps := []float64{0.5, 0.5}
		full, err := ChooseReportGreedy(m, truth, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		part, err := ChooseReportGreedy(m, truth, eps, []bool{true, true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, part) {
			t.Fatalf("all-available mask (%v) and no mask (%v) disagree", part, full)
		}
		// With one attribute hidden, the incremental evaluator and the
		// from-scratch search still pick the same set.
		mask := []bool{trial%2 == 0, trial%2 == 1}
		fast, err := ChooseReportGreedy(m, truth, eps, mask)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ChooseReportGreedy(hideIC{m}, truth, eps, mask)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("masked search: incremental %v, scratch %v", fast, slow)
		}
		for i := range mask {
			if _, ok := fast[i]; ok && !mask[i] {
				t.Fatalf("masked search reported unavailable attribute %d: %v", i, fast)
			}
		}
	}
}

// TestLinearGaussianLongRunStability: a thousand predict/condition cycles
// must not blow up numerically — means stay finite and physically
// plausible, covariance diagonals stay non-negative.
func TestLinearGaussianLongRunStability(t *testing.T) {
	tr, err := trace.GenerateGarden(87, 1200)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, len(rows))
	for i, r := range rows {
		cols[i] = r[:5]
	}
	lg, err := FitLinearGaussian(cols[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone().(*LinearGaussian)
	eps := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	for step, row := range cols[100:] {
		m.Step()
		obs, err := ChooseReportGreedy(m, row, eps, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := m.Condition(obs); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i, v := range m.Mean() {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < -50 || v > 80 {
				t.Fatalf("step %d: mean[%d] = %v diverged", step, i, v)
			}
		}
		cov := m.Cov()
		for i := 0; i < 5; i++ {
			if cov.At(i, i) < -1e-9 {
				t.Fatalf("step %d: negative variance %v", step, cov.At(i, i))
			}
		}
	}
}
