package core

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/model"
)

// TestAllocBudgetKenReplay pins a suppressed Ken epoch — the steady state
// the paper's savings come from — at zero heap allocations: prediction,
// bound check and sink update all run against per-clique scratch. Bounds
// far wider than the signal make every epoch suppress deterministically.
func TestAllocBudgetKenReplay(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	train, test, _ := gardenData(t, 4, 100, 10)
	eps := []float64{100, 100, 100, 100}
	s, err := NewKen(KenConfig{
		Partition: pairPartition(4),
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := test[0]
	if got := testing.AllocsPerRun(100, func() {
		_, st, err := s.Step(row)
		if err != nil {
			t.Fatal(err)
		}
		if st.ValuesReported != 0 {
			t.Fatal("epoch reported despite wide bounds — budget premise broken")
		}
	}); got != 0 {
		t.Errorf("suppressed Ken epoch: %v allocs/op, budget 0", got)
	}
}

// TestAllocBudgetLossyKenReplay extends the replay budget to the lossy
// wrapper: a suppressed epoch that is not a heartbeat flips no loss coin
// and, like Ken's, runs on the clique kernel's scratch without
// allocating.
func TestAllocBudgetLossyKenReplay(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	train, test, _ := gardenData(t, 4, 100, 10)
	eps := []float64{100, 100, 100, 100}
	s, err := NewLossyKen(KenConfig{
		Partition: pairPartition(4),
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	}, LossyConfig{LossRate: 0.3, HeartbeatEvery: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	row := test[0]
	if got := testing.AllocsPerRun(100, func() {
		_, st, err := s.Step(row)
		if err != nil {
			t.Fatal(err)
		}
		if st.ValuesReported != 0 || s.Heartbeats != 0 {
			t.Fatal("epoch reported despite wide bounds — budget premise broken")
		}
	}); got != 0 {
		t.Errorf("suppressed LossyKen epoch: %v allocs/op, budget 0", got)
	}
}
