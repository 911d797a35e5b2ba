package core

import (
	"context"
	"testing"

	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/trace"
)

// labData returns (train, test, eps) temperature matrices for the first n
// Lab nodes, seeded so the run is reproducible.
func labData(t testing.TB, n, trainSteps, testSteps int) (train, test [][]float64, eps []float64) {
	t.Helper()
	tr, err := trace.GenerateLab(42, trainSteps+testSteps)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	all := make([][]float64, len(rows))
	for i, r := range rows {
		all[i] = r[:n]
	}
	eps = make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	return all[:trainSteps], all[trainSteps:], eps
}

// checkAccounting enforces the Result bookkeeping invariants that every
// consumer (bench tables, event detection, FractionReported) relies on:
//
//   - per-step slices all have Steps entries,
//   - ValuesReported equals the PerStepReported sum,
//   - each step's count equals the number of attribute indices it lists,
//   - listed indices are in-range and unique within a step,
//   - reportCounts redistributes exactly ValuesReported.
func checkAccounting(t *testing.T, res *Result) {
	t.Helper()
	if len(res.PerStepReported) != res.Steps {
		t.Fatalf("%s: PerStepReported has %d entries, want %d", res.Scheme, len(res.PerStepReported), res.Steps)
	}
	if len(res.ReportedAttrs) != res.Steps {
		t.Fatalf("%s: ReportedAttrs has %d entries, want %d", res.Scheme, len(res.ReportedAttrs), res.Steps)
	}
	if len(res.Estimates) != res.Steps {
		t.Fatalf("%s: Estimates has %d entries, want %d", res.Scheme, len(res.Estimates), res.Steps)
	}
	sum := 0
	for t2, c := range res.PerStepReported {
		sum += c
		if got := len(res.ReportedAttrs[t2]); got != c {
			t.Fatalf("%s: step %d reports %d values but lists %d attrs", res.Scheme, t2, c, got)
		}
		seen := map[int]bool{}
		for _, a := range res.ReportedAttrs[t2] {
			if a < 0 || a >= res.Dim {
				t.Fatalf("%s: step %d reported attr %d out of range [0,%d)", res.Scheme, t2, a, res.Dim)
			}
			if seen[a] {
				t.Fatalf("%s: step %d reports attr %d twice", res.Scheme, t2, a)
			}
			seen[a] = true
		}
	}
	if sum != res.ValuesReported {
		t.Fatalf("%s: ValuesReported=%d but PerStepReported sums to %d", res.Scheme, res.ValuesReported, sum)
	}
	counts := reportCounts(res)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != res.ValuesReported {
		t.Fatalf("%s: ReportCounts sums to %d, want ValuesReported=%d", res.Scheme, total, res.ValuesReported)
	}
}

// reportCounts returns how many times each attribute was reported over the
// run.
func reportCounts(r *Result) []int {
	counts := make([]int, r.Dim)
	for _, attrs := range r.ReportedAttrs {
		for _, a := range attrs {
			if a >= 0 && a < r.Dim {
				counts[a]++
			}
		}
	}
	return counts
}

// TestAccountingConsistencyAcrossSchemes replays every scheme over the same
// seeded Lab window and cross-checks the three report tallies (ValuesReported,
// PerStepReported, ReportedAttrs) against one another.
func TestAccountingConsistencyAcrossSchemes(t *testing.T) {
	const n, trainN, testN = 6, 100, 150
	train, test, eps := labData(t, n, trainN, testN)

	schemes := []struct {
		name  string
		build func() (Scheme, error)
	}{
		{"tinydb", func() (Scheme, error) { return NewTinyDB(n, nil) }},
		{"cache", func() (Scheme, error) { return NewCache(eps, nil) }},
		{"average", func() (Scheme, error) {
			return NewAverage(train, eps, model.FitConfig{Period: 24}, nil)
		}},
		{"djc1", func() (Scheme, error) {
			return NewKen(KenConfig{Partition: singletonPartition(n), Train: train, Eps: eps,
				FitCfg: model.FitConfig{Period: 24}})
		}},
		{"djc2", func() (Scheme, error) {
			return NewKen(KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
				FitCfg: model.FitConfig{Period: 24}})
		}},
		{"djc2-prob", func() (Scheme, error) {
			return NewKen(KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
				FitCfg: model.FitConfig{Period: 24}, Prob: &ProbConfig{Steepness: 2, Seed: 9}})
		}},
		{"djc2-lossy", func() (Scheme, error) {
			return NewLossyKen(
				KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
					FitCfg: model.FitConfig{Period: 24}},
				LossyConfig{LossRate: 0.2, HeartbeatEvery: 24, Seed: 9})
		}},
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			s, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			// Probabilistic and lossy variants may legitimately violate ε,
			// so audit without bounds there (nil eps) — the accounting
			// invariants must hold either way.
			auditEps := eps
			if sc.name == "djc2-prob" || sc.name == "djc2-lossy" {
				auditEps = nil
			}
			res, err := Run(context.Background(), s, test, RunOptions{Eps: auditEps})
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != testN || res.Dim != n {
				t.Fatalf("res has Steps=%d Dim=%d, want %d/%d", res.Steps, res.Dim, testN, n)
			}
			checkAccounting(t, res)
		})
	}
}

// TestRunObserverMetricsMatchResult runs an observed Lab replay and checks
// that the live metrics the registry exports agree exactly with the Result
// totals — the guarantee that a /metrics scrape and a bench table never tell
// different stories.
func TestRunObserverMetricsMatchResult(t *testing.T) {
	const n, trainN, testN = 4, 100, 120
	train, test, eps := labData(t, n, trainN, testN)

	reg := obs.NewRegistry()
	ob := &obs.Observer{Reg: reg}
	s, err := NewKen(KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24}, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)

	if got := reg.Counter("ken_epochs_total").Value(); got != int64(res.Steps) {
		t.Errorf("ken_epochs_total=%d, want %d", got, res.Steps)
	}
	if got := reg.Counter("ken_run_values_reported_total").Value(); got != int64(res.ValuesReported) {
		t.Errorf("ken_run_values_reported_total=%d, want %d", got, res.ValuesReported)
	}
	// The scheme-side counter must agree with the run-side one.
	if got := reg.Counter("ken_values_reported_total").Value(); got != int64(res.ValuesReported) {
		t.Errorf("ken_values_reported_total=%d, want %d", got, res.ValuesReported)
	}
	// Every reading is either reported or suppressed.
	suppressed := reg.Counter("ken_values_suppressed_total").Value()
	if total := int64(res.Steps*res.Dim) - int64(res.ValuesReported); suppressed != total {
		t.Errorf("ken_values_suppressed_total=%d, want %d", suppressed, total)
	}
	if got := reg.Counter("ken_epsilon_violations_total").Value(); got != int64(res.BoundViolations) {
		t.Errorf("ken_epsilon_violations_total=%d, want %d", got, res.BoundViolations)
	}
	if got := reg.Gauge("ken_max_abs_error").Value(); got != res.MaxAbsError {
		t.Errorf("ken_max_abs_error=%v, want %v", got, res.MaxAbsError)
	}
}

// benchmarkKenStep measures the protocol step with and without an attached
// observer; the nil-obs variant documents the cost of the always-on
// instrumentation calls (nil checks only — see package obs).
func benchmarkKenStep(b *testing.B, ob *obs.Observer) {
	const n, trainN, testN = 6, 100, 200
	train, test, eps := labData(b, n, trainN, testN)
	s, err := NewKen(KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24}, Obs: ob})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Step(test[i%len(test)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKenStepNoObserver(b *testing.B) { benchmarkKenStep(b, nil) }

func BenchmarkKenStepObserved(b *testing.B) {
	benchmarkKenStep(b, &obs.Observer{Reg: obs.NewRegistry()})
}
