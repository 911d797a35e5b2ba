package slo

import (
	"testing"
	"time"

	"ken/internal/obs"
)

// fixedClock is the injectable test clock.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time          { return c.t }
func (c *fixedClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testMonitor builds a monitor on a deterministic clock, not started —
// tests drive Sync directly.
func testMonitor(t *testing.T, cfg Config) (*Monitor, *fixedClock) {
	t.Helper()
	clk := &fixedClock{t: time.Unix(1_700_000_000, 0)}
	cfg.now = clk.now
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{Reg: obs.NewRegistry()}
	}
	return NewMonitor(cfg), clk
}

func TestFeedRingOrderAndDrop(t *testing.T) {
	f := NewFeed(3)
	for i := 0; i < 5; i++ {
		f.Publish(Event{Tenant: "t0", Kind: KindApply, Step: uint64(i)})
	}
	got := f.DrainInto(nil)
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 3 (ring capacity)", len(got))
	}
	for i, ev := range got {
		if ev.Step != uint64(i) {
			t.Errorf("event %d has step %d, want %d (publish order, newest dropped)", i, ev.Step, i)
		}
	}
	if st := f.Stats(); st.Published != 3 || st.Dropped != 2 {
		t.Errorf("stats=%+v, want published 3 dropped 2", st)
	}
	if again := f.DrainInto(nil); len(again) != 0 {
		t.Errorf("second drain returned %d events, want 0", len(again))
	}
}

func TestFeedNilSafe(t *testing.T) {
	var f *Feed
	f.Publish(Event{Tenant: "x"})
	if got := f.DrainInto(nil); len(got) != 0 {
		t.Errorf("nil feed drained %d events", len(got))
	}
	if st := f.Stats(); st != (FeedStats{}) {
		t.Errorf("nil feed stats=%+v, want zero", st)
	}
}

// publishApply publishes one applied frame with the given queue latency,
// stamped at the clock's current time.
func publishApply(m *Monitor, clk *fixedClock, tenant string, step uint64, values, deviations int, latency time.Duration, heartbeat bool, maxDev float64) {
	applied := clk.t.UnixNano()
	m.Feed().Publish(Event{
		Tenant:        tenant,
		Kind:          KindApply,
		Step:          step,
		Values:        values,
		Heartbeat:     heartbeat,
		Deviations:    deviations,
		MaxDevEps:     maxDev,
		EnqueuedNanos: applied - int64(latency),
		AppliedNanos:  applied,
		QueueDepth:    1,
	})
}

func TestMonitorWindowAccounting(t *testing.T) {
	m, clk := testMonitor(t, Config{LatencyBudget: 100 * time.Millisecond, QueueCap: 8})
	m.Track("t0")

	// Three frames: a fast deviation (no violation), a slow deviation
	// (violation), and a clean heartbeat.
	publishApply(m, clk, "t0", 1, 4, 1, time.Millisecond, false, 1.2)
	clk.advance(time.Second)
	publishApply(m, clk, "t0", 2, 4, 2, 250*time.Millisecond, false, 2.0)
	clk.advance(time.Second)
	publishApply(m, clk, "t0", 3, 8, 0, time.Millisecond, true, 0.4)

	st, ok := m.Status("t0")
	if !ok {
		t.Fatal("tenant t0 unknown to monitor")
	}
	w := st.Window
	if w.Frames != 3 || w.Values != 16 || w.Heartbeats != 1 {
		t.Errorf("frames=%d values=%d heartbeats=%d, want 3/16/1", w.Frames, w.Values, w.Heartbeats)
	}
	if w.Deviations != 3 || w.Violations != 2 {
		t.Errorf("deviations=%d violations=%d, want 3 and 2 (only the slow frame's)", w.Deviations, w.Violations)
	}
	if w.ViolationRate != 2.0/16.0 {
		t.Errorf("violation rate=%v, want %v", w.ViolationRate, 2.0/16.0)
	}
	if w.MaxDevEps != 2.0 || w.HeartbeatMaxDevEps != 0.4 {
		t.Errorf("maxDev=%v hbMaxDev=%v, want 2.0 and 0.4", w.MaxDevEps, w.HeartbeatMaxDevEps)
	}
	if w.DivergenceSuspected {
		t.Error("divergence suspected at 0.4 ε on heartbeats")
	}
	if w.LastStep != 3 || w.TotalFrames != 3 || w.QueueDepth != 1 || w.QueueCap != 8 {
		t.Errorf("lastStep=%d totalFrames=%d queue=%d/%d, want 3, 3, 1/8", w.LastStep, w.TotalFrames, w.QueueDepth, w.QueueCap)
	}
	if w.LatencyP95 < 0.2 || w.LatencyP50 > 0.01 {
		t.Errorf("latency p50=%v p95=%v, want p50 ~1ms and p95 ~250ms", w.LatencyP50, w.LatencyP95)
	}
}

func TestMonitorWindowRotation(t *testing.T) {
	m, clk := testMonitor(t, Config{Window: 60 * time.Second})
	m.Track("t0")
	publishApply(m, clk, "t0", 1, 2, 0, time.Millisecond, false, 0)
	clk.advance(90 * time.Second)
	publishApply(m, clk, "t0", 2, 2, 0, time.Millisecond, false, 0)

	st, _ := m.Status("t0")
	if st.Window.Frames != 1 {
		t.Errorf("window frames=%d, want 1 — the 90s-old frame must have rotated out", st.Window.Frames)
	}
	if st.Window.TotalFrames != 2 {
		t.Errorf("total frames=%d, want 2 — lifetime tally must survive rotation", st.Window.TotalFrames)
	}
}

func TestMonitorHealthTransitions(t *testing.T) {
	m, clk := testMonitor(t, Config{
		StaleAfter:    10 * time.Second,
		LatencyBudget: 100 * time.Millisecond,
		QueueCap:      10,
	})

	// Fresh tenant: tracked moments ago, nothing applied — still ok.
	m.Track("t0")
	if st, _ := m.Status("t0"); st.Health != HealthOK || st.Unhealthy {
		t.Errorf("fresh tenant: %+v, want ok", st)
	}

	// Healthy streaming.
	publishApply(m, clk, "t0", 1, 100, 0, time.Millisecond, false, 0)
	if st, _ := m.Status("t0"); st.Health != HealthOK {
		t.Errorf("healthy tenant: health=%s, want ok", st.Health)
	}

	// Violation rate above 1% degrades.
	publishApply(m, clk, "t0", 2, 10, 5, time.Second, false, 4.0)
	st, _ := m.Status("t0")
	if st.Health != HealthDegraded || !st.Unhealthy {
		t.Errorf("violating tenant: %+v, want degraded", st)
	}
	if !hasReason(st, ReasonViolationRate) {
		t.Errorf("reasons=%v, want %s", st.Reasons, ReasonViolationRate)
	}

	// Heartbeat deviation past the sentinel threshold — a gross
	// lock-step break, orders of magnitude beyond healthy drift.
	publishApply(m, clk, "t0", 3, 10, 0, time.Millisecond, true, 40)
	if st, _ = m.Status("t0"); !hasReason(st, ReasonDivergence) {
		t.Errorf("reasons=%v, want %s", st.Reasons, ReasonDivergence)
	}

	// Queue near the budget.
	applied := clk.t.UnixNano()
	m.Feed().Publish(Event{Tenant: "t0", Kind: KindApply, Step: 4, Values: 1,
		EnqueuedNanos: applied, AppliedNanos: applied, QueueDepth: 9})
	if st, _ = m.Status("t0"); !hasReason(st, ReasonQueuePressure) {
		t.Errorf("reasons=%v, want %s", st.Reasons, ReasonQueuePressure)
	}

	// Silence past StaleAfter goes stale (stale outranks degraded).
	clk.advance(11 * time.Second)
	if st, _ = m.Status("t0"); st.Health != HealthStale || !hasReason(st, ReasonStale) {
		t.Errorf("silent tenant: %+v, want stale", st)
	}

	// Lifecycle states override everything.
	m.NoteLifecycle("t0", LifeShed)
	if st, _ = m.Status("t0"); st.Health != HealthShedding || !st.Unhealthy || !hasReason(st, ReasonShed) {
		t.Errorf("shed tenant: %+v, want shedding/unhealthy", st)
	}
	m.NoteLifecycle("t0", LifeFailed)
	if st, _ = m.Status("t0"); st.Health != HealthTerminal || !st.Unhealthy || !hasReason(st, ReasonFailed) {
		t.Errorf("failed tenant: %+v, want terminal/unhealthy", st)
	}
	m.NoteLifecycle("t0", LifeClosed)
	if st, _ = m.Status("t0"); st.Health != HealthTerminal || st.Unhealthy || !hasReason(st, ReasonClosed) {
		t.Errorf("closed tenant: %+v, want terminal and healthy (clean close is benign)", st)
	}
}

func hasReason(st TenantStatus, want string) bool {
	for _, r := range st.Reasons {
		if r == want {
			return true
		}
	}
	return false
}

func TestMonitorShedEventsCount(t *testing.T) {
	m, clk := testMonitor(t, Config{})
	m.Feed().Publish(Event{Tenant: "t0", Kind: KindShed, AppliedNanos: clk.t.UnixNano()})
	m.Feed().Publish(Event{Tenant: "t0", Kind: KindShed, AppliedNanos: clk.t.UnixNano()})
	st, ok := m.Status("t0")
	if !ok {
		t.Fatal("shed events must create the tenant")
	}
	if st.Window.Sheds != 2 || st.Window.TotalSheds != 2 {
		t.Errorf("sheds=%d total=%d, want 2/2", st.Window.Sheds, st.Window.TotalSheds)
	}
}

func TestMonitorStatusAllSortedAndUnknown(t *testing.T) {
	m, clk := testMonitor(t, Config{})
	for _, name := range []string{"t2", "t0", "t1"} {
		publishApply(m, clk, name, 1, 1, 0, time.Millisecond, false, 0)
	}
	all := m.StatusAll()
	if len(all) != 3 {
		t.Fatalf("%d statuses, want 3", len(all))
	}
	for i, want := range []string{"t0", "t1", "t2"} {
		if all[i].Tenant != want {
			t.Errorf("status %d is %q, want %q (sorted)", i, all[i].Tenant, want)
		}
	}
	if _, ok := m.Status("nope"); ok {
		t.Error("unknown tenant reported a status")
	}
}

func TestMonitorMetricsMirror(t *testing.T) {
	reg := obs.NewRegistry()
	m, clk := testMonitor(t, Config{Obs: &obs.Observer{Reg: reg}, FeedCapacity: 2, LatencyBudget: 100 * time.Millisecond})
	publishApply(m, clk, "t0", 1, 4, 2, time.Second, false, 2.0)
	publishApply(m, clk, "t0", 2, 4, 1, time.Millisecond, false, 1.1)
	publishApply(m, clk, "t0", 3, 4, 0, time.Millisecond, false, 0) // dropped: ring is full
	m.Sync()

	s := reg.Snapshot()
	if s.Counters["slo_events_total"] != 2 {
		t.Errorf("slo_events_total=%d, want 2", s.Counters["slo_events_total"])
	}
	if s.Counters["slo_feed_dropped_total"] != 1 {
		t.Errorf("slo_feed_dropped_total=%d, want 1", s.Counters["slo_feed_dropped_total"])
	}
	if s.Counters["slo_eps_deviations_total"] != 3 || s.Counters["slo_eps_violations_total"] != 2 {
		t.Errorf("deviations=%d violations=%d, want 3/2",
			s.Counters["slo_eps_deviations_total"], s.Counters["slo_eps_violations_total"])
	}
	if s.Histograms["slo_apply_latency_seconds"].Count != 2 {
		t.Errorf("latency histogram count=%d, want 2", s.Histograms["slo_apply_latency_seconds"].Count)
	}
	if s.Help["slo_events_total"] == "" {
		t.Error("slo_events_total has no help string")
	}
}

// TestMonitorStartCloseJoins proves the drain goroutine lifecycle: Start
// twice is idempotent, Close joins and takes a final drain so nothing
// published before Close is lost.
func TestMonitorStartCloseJoins(t *testing.T) {
	m, clk := testMonitor(t, Config{SyncEvery: time.Hour}) // ticker never fires
	m.Start()
	m.Start()
	publishApply(m, clk, "t0", 1, 1, 0, time.Millisecond, false, 0)
	m.Close()
	m.mu.Lock()
	frames := m.tenants["t0"].totalFrames
	m.mu.Unlock()
	if frames != 1 {
		t.Errorf("totalFrames=%d after Close, want 1 (final drain)", frames)
	}
	m.Close() // idempotent
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	m.Track("x")
	m.NoteLifecycle("x", LifeShed)
	m.Start()
	m.Sync()
	m.Close()
	if m.Feed() != nil {
		t.Error("nil monitor returned a feed")
	}
	if _, ok := m.Status("x"); ok {
		t.Error("nil monitor reported a status")
	}
	if all := m.StatusAll(); all != nil {
		t.Errorf("nil monitor StatusAll=%v, want nil", all)
	}
	if st := m.FeedStats(); st != (FeedStats{}) {
		t.Errorf("nil monitor FeedStats=%+v, want zero", st)
	}
}
