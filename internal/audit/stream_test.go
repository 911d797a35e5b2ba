package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"ken/internal/obs"
	"ken/internal/simnet"
)

// streamAudit streams a JSONL trace through a fresh Auditor the way
// kenaudit does: obs.StreamEvents (which rejects unknown schema versions)
// feeding Auditor.Feed, without holding the events in memory.
func streamAudit(r io.Reader) (*Report, error) {
	var a Auditor
	if err := obs.StreamEvents(r, func(e obs.Event) error {
		a.Feed(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return a.Finish(), nil
}

// reportBytes renders a report the way kenaudit does (JSON + markdown),
// so "byte-identical" covers everything a consumer can observe.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeTrace renders events back to schema-2 JSONL, as a Tracer would.
func encodeTrace(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr, err := json.Marshal(obs.TraceHeader{Kind: obs.TraceKind, Schema: obs.TraceSchema})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	enc := json.NewEncoder(&buf)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStreamingMatchesBatchAudit: the three ways to drive the auditor —
// Audit over a slice, Feed/Finish event by event, and obs.StreamEvents
// into Feed over the encoded JSONL — must produce byte-identical reports,
// on clean, lossy and tampered traces alike.
func TestStreamingMatchesBatchAudit(t *testing.T) {
	n := 4
	train, test, eps := labData(t, n, 200, 60)
	kenEvents, _ := runTraced(t, buildKen(train, eps, n), test, eps, "run")

	tampered := make([]obs.Event, len(kenEvents))
	copy(tampered, kenEvents)
	for i := range tampered {
		e := &tampered[i]
		if e.Type == obs.EvEpochEnd && e.Step == 30 && e.Payload != nil && len(e.Payload.Observed) > 0 {
			p := *e.Payload
			obsCopy := append([]float64(nil), p.Observed...)
			obsCopy[0] += 100 * (eps[0] + 1)
			p.Observed = obsCopy
			e.Payload = &p
			break
		}
	}

	lossy := simnet.DefaultRadio()
	lossy.LossRate = 0.3
	cases := []struct {
		name   string
		events []obs.Event
	}{
		{"ken-clean", kenEvents},
		{"ken-tampered", tampered},
		{"simnet-clean", runSimnetTraced(t, simnet.DefaultRadio(), 1, 60)},
		{"simnet-lossy", runSimnetTraced(t, lossy, 2, 120)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch := reportBytes(t, Audit(tc.events))

			var a Auditor
			for _, e := range tc.events {
				a.Feed(e)
			}
			streamed := reportBytes(t, a.Finish())
			if !bytes.Equal(batch, streamed) {
				t.Fatal("Feed/Finish report differs from batch Audit report")
			}

			rep, err := streamAudit(bytes.NewReader(encodeTrace(t, tc.events)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(batch, reportBytes(t, rep)) {
				t.Fatal("streamed trace report differs from batch Audit report")
			}
		})
	}
}

// TestAuditorResetsBetweenTraces: Finish must leave the auditor ready for
// an unrelated trace with no state bleeding across.
func TestAuditorResetsBetweenTraces(t *testing.T) {
	events := runSimnetTraced(t, simnet.DefaultRadio(), 1, 30)
	want := reportBytes(t, Audit(events))
	var a Auditor
	a.Feed(obs.Event{Type: obs.EvReport, Scope: "junk", Step: 9, Clique: -1, Node: 0})
	a.Finish()
	for _, e := range events {
		a.Feed(e)
	}
	if !bytes.Equal(want, reportBytes(t, a.Finish())) {
		t.Fatal("second trace's report contaminated by the first")
	}
}

// feedSyntheticEpochs streams count single-report epochs (start, report,
// apply, end with a full audit triple) into the auditor. Each epoch
// carries ~4 events and fresh span ids, so an auditor that retained
// per-epoch state would grow without bound.
func feedSyntheticEpochs(a *Auditor, count int, from int) {
	for i := from; i < from+count; i++ {
		sid := int64(i)*8 + 1
		step := int64(i)
		a.Feed(obs.Event{Type: obs.EvEpochStart, Span: sid, Step: step, Clique: 0, Node: -1, Scope: "mem"})
		a.Feed(obs.Event{Type: obs.EvReport, Span: sid + 1, Parent: sid, Epoch: sid, Step: step,
			Clique: 0, Node: 1, Scope: "mem", Attrs: []int{0, 1, 2}, Values: []float64{1, 2, 3},
			Payload: &obs.Payload{Bytes: 64}})
		a.Feed(obs.Event{Type: obs.EvApply, Span: sid + 2, Parent: sid + 1, Epoch: sid, Step: step,
			Clique: 0, Node: -1, Scope: "mem", Attrs: []int{0, 1, 2}})
		a.Feed(obs.Event{Type: obs.EvEpochEnd, Epoch: sid, Step: step, Clique: 0, Node: -1,
			Scope: "mem", N: 3, Payload: &obs.Payload{
				Bytes:     64,
				Predicted: []float64{1, 2, 3},
				Observed:  []float64{1, 2, 3},
				Eps:       []float64{0.5, 0.5, 0.5},
			}})
	}
}

// TestAuditBoundedMemory is the constant-memory contract: a trace of
// 120k epochs (~480k events, ~100 MB if retained) must audit with the
// heap staying under a ceiling a few orders of magnitude smaller,
// because per-epoch state is evicted as each epoch ends.
func TestAuditBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		epochs  = 120_000
		chunk   = 10_000
		ceiling = 32 << 20 // bytes of HeapAlloc after GC
	)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	var a Auditor
	var peak uint64
	for done := 0; done < epochs; done += chunk {
		feedSyntheticEpochs(&a, chunk, done)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	rep := a.Finish()
	if !rep.Clean() {
		t.Fatalf("synthetic trace reported violations: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
	if rep.Epochs != epochs {
		t.Fatalf("audited %d epochs, want %d", rep.Epochs, epochs)
	}
	if rep.Events != epochs*4 {
		t.Fatalf("audited %d events, want %d", rep.Events, epochs*4)
	}
	if peak > base+ceiling {
		t.Fatalf("peak heap %d bytes (baseline %d) exceeds the %d-byte ceiling — per-epoch state is not being evicted",
			peak, base, uint64(ceiling))
	}
	t.Logf("peak heap over %s epochs: %.1f MiB (baseline %.1f MiB)",
		fmtCount(epochs), float64(peak)/(1<<20), float64(base)/(1<<20))
}

func fmtCount(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
