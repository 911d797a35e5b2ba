package bench

import (
	"bytes"
	"context"
	"testing"

	"ken/internal/audit"
	"ken/internal/engine"
	"ken/internal/obs"
)

// TestBenchTraceAuditsIdenticallyAtAnyWidth replays one figure with tracing
// at pool widths 1 and 8 and requires the audit reports to be byte-identical:
// the engine's per-cell scopes make a parallel trace's interleaving
// irrelevant to the auditor, which is the property the audit-smoke CI target
// locks in for the full benchmark suite.
func TestBenchTraceAuditsIdenticallyAtAnyWidth(t *testing.T) {
	var reports [][]byte
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
		cfg := Quick()
		cfg.Obs = ob
		eng := engine.New(engine.Options{Workers: workers, Obs: ob})
		if _, err := Fig14(context.Background(), eng, cfg); err != nil {
			t.Fatalf("Fig14 (workers=%d): %v", workers, err)
		}
		if err := ob.Trace.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		var a audit.Auditor
		if err := obs.StreamEvents(&buf, func(e obs.Event) error {
			a.Feed(e)
			return nil
		}); err != nil {
			t.Fatalf("audit (workers=%d): %v", workers, err)
		}
		rep := a.Finish()
		if !rep.Clean() {
			t.Fatalf("workers=%d: audit found violations: %v", workers, rep.Violations)
		}
		if rep.Epochs == 0 {
			t.Fatalf("workers=%d: trace carried no epochs", workers)
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatalf("report: %v", err)
		}
		reports = append(reports, out.Bytes())
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("audit reports differ between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			reports[0], reports[1])
	}
}
