package stream

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/wire"
)

// TestAllocBudgetStream pins the endpoints' steady state — suppressed
// source epochs and empty sink frames — at zero heap allocations per step
// (the committed budget table in docs/LINT.md). Bounds far wider than the
// signal make every step suppress deterministically.
func TestAllocBudgetStream(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	cfg, test := testConfig(t)
	for i := range cfg.Eps {
		cfg.Eps[i] = 100
	}
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := test[0]

	if got := testing.AllocsPerRun(100, func() {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Attrs) != 0 {
			t.Fatal("step reported despite wide bounds — budget premise broken")
		}
	}); got != 0 {
		t.Errorf("suppressed Source.Collect: %v allocs/op, budget 0", got)
	}

	var step uint64
	if got := testing.AllocsPerRun(100, func() {
		if err := rep.Apply(wire.Frame{Step: step}); err != nil {
			t.Fatal(err)
		}
		step++
	}); got != 0 {
		t.Errorf("empty Replica.Apply: %v allocs/op, budget 0", got)
	}
}

// TestAllocBudgetStreamReportingFrame pins one full-report frame through
// the framed protocol path — Source.Collect, wire.Encode, wire.DecodeInto
// into a reused frame, Replica.ApplyObserved — at its measured allocation
// count. Bounds far tighter than the signal make every frame carry every
// attribute deterministically. The budget only ever goes down.
func TestAllocBudgetStreamReportingFrame(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	const budget = 34 // measured; lower it as reporting epochs shed allocations
	cfg, test := testConfig(t)
	for i := range cfg.Eps {
		cfg.Eps[i] = 1e-6
	}
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := test[0]
	var dec wire.Frame
	var st ApplyStats
	got := testing.AllocsPerRun(100, func() {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Attrs) != len(row) {
			t.Fatalf("frame carried %d of %d values despite tight bounds — budget premise broken", len(f.Attrs), len(row))
		}
		buf, err := wire.Encode(f, src.Resolution())
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeInto(&dec, buf, rep.Resolution()); err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyObserved(dec, &st); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("reporting frame: %v allocs/op, budget %d", got, budget)
	}
}
