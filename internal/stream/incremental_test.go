package stream

import (
	"math"
	"testing"

	"ken/internal/model"
)

// scratchStreamModel hides model.IncrementalConditioner so the greedy
// report search runs on the from-scratch MeanGiven reference path.
type scratchStreamModel struct{ model.Model }

func (s scratchStreamModel) Clone() model.Model { return scratchStreamModel{s.Model.Clone()} }

// TestStreamLockStepScratch pins the package invariant advertised in the
// package doc: with the source's greedy search running through the cached
// incremental conditioning evaluator, every frame carries exactly the
// report set the from-scratch reference search would have chosen, and the
// sink replica's answers stay bitwise identical to an independent
// simulation of the protocol on a model with the evaluator hidden.
func TestStreamLockStepScratch(t *testing.T) {
	cfg, rows := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := src.Resolution()

	// Rebuild the per-clique models exactly as build does (FitLinearGaussian
	// is deterministic), but wrapped so only the Model interface is visible.
	type simClique struct {
		members []int
		mdl     model.Model
		eps     []float64 // effective (ε − resolution/2), as on the wire
	}
	n := len(cfg.Train[0])
	var sim []simClique
	for _, c := range cfg.Partition.Cliques {
		cols := make([][]float64, len(cfg.Train))
		for ti, row := range cfg.Train {
			r := make([]float64, len(c.Members))
			for i, g := range c.Members {
				r[i] = row[g]
			}
			cols[ti] = r
		}
		m, err := model.FitLinearGaussian(cols, cfg.FitCfg)
		if err != nil {
			t.Fatal(err)
		}
		eff := make([]float64, len(c.Members))
		for i, g := range c.Members {
			eff[i] = cfg.Eps[g] - res/2
		}
		sim = append(sim, simClique{
			members: append([]int(nil), c.Members...),
			mdl:     scratchStreamModel{m.Clone()},
			eps:     eff,
		})
	}

	est := make([]float64, n)
	var st ApplyStats
	totalReported := 0
	for step, truth := range rows[:120] {
		frame, err := src.Collect(truth)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyObserved(frame, &st); err != nil {
			t.Fatal(err)
		}
		frameObs := make(map[int]float64, len(frame.Attrs))
		for k, a := range frame.Attrs {
			frameObs[a] = frame.Values[k]
		}
		simReported := 0
		for ci := range sim {
			c := &sim[ci]
			c.mdl.Step()
			local := make([]float64, len(c.members))
			for i, g := range c.members {
				local[i] = truth[g]
			}
			obs, err := model.ChooseReportGreedy(c.mdl, local, c.eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			quant := make(map[int]float64, len(obs))
			for i, v := range obs {
				qv := math.Round(v/res) * res
				quant[i] = qv
				fv, ok := frameObs[c.members[i]]
				if !ok || fv != qv {
					t.Fatalf("step %d: scratch search reported attr %d = %v, frame carried %v (present %v)",
						step, c.members[i], qv, fv, ok)
				}
			}
			simReported += len(quant)
			if len(quant) > 0 {
				if err := c.mdl.Condition(quant); err != nil {
					t.Fatal(err)
				}
			}
			mean := c.mdl.Mean()
			for i, g := range c.members {
				est[g] = mean[i]
			}
		}
		if simReported != len(frame.Attrs) {
			t.Fatalf("step %d: frame carried %d values, scratch search chose %d", step, len(frame.Attrs), simReported)
		}
		got := rep.Estimates()
		for g := range got {
			if got[g] != est[g] {
				t.Fatalf("step %d: sink answer for attr %d is %v, scratch replica says %v", step, g, got[g], est[g])
			}
		}
		totalReported += len(frame.Attrs)
	}
	if totalReported == 0 {
		t.Fatal("no value reported across the replay — the search was never exercised; tighten eps")
	}
}
