package slo

import (
	"sort"
	"sync"
	"time"

	"ken/internal/obs"
)

// Lifecycle is the daemon-side tenant lifecycle folded into health
// evaluation. The monitor learns it from the daemon (which owns the
// session state machine) rather than inferring it from events.
type Lifecycle uint8

const (
	// LifeActive: the session is building or streaming.
	LifeActive Lifecycle = iota
	// LifeClosed: the source finished cleanly. Benign.
	LifeClosed
	// LifeShed: the tenant overran its frame budget and was disconnected.
	LifeShed
	// LifeFailed: the stream died on a decode or apply error.
	LifeFailed
)

// Health is a tenant's operator-facing health state.
type Health string

const (
	// HealthOK: streaming within every SLO.
	HealthOK Health = "ok"
	// HealthDegraded: streaming, but an SLO is out of bounds (see the
	// status reasons).
	HealthDegraded Health = "degraded"
	// HealthStale: no frame applied for longer than the staleness
	// threshold while the session is nominally live — the spec's
	// heartbeat interval guarantees a frame cadence, so silence this
	// long means the served answers can no longer be trusted to track
	// the source.
	HealthStale Health = "stale"
	// HealthShedding: the tenant was shed; its replica is frozen and
	// queryable but no longer within the ε contract.
	HealthShedding Health = "shedding"
	// HealthTerminal: the session ended (cleanly or on error); see the
	// reasons for which.
	HealthTerminal Health = "terminal"
)

// Health-state reasons, machine-readable (stable strings).
const (
	ReasonViolationRate = "eps-violation-rate"
	ReasonDivergence    = "divergence-suspected"
	ReasonQueuePressure = "queue-pressure"
	ReasonStale         = "stale"
	ReasonShed          = "shed"
	ReasonFailed        = "failed"
	ReasonClosed        = "closed"
)

// Health thresholds.
const (
	// maxViolationRate is the windowed violations-per-reported-value rate
	// above which a tenant degrades.
	maxViolationRate = 0.01
	// divergenceDevEps is the heartbeat deviation (in multiples of ε) that
	// trips the replica-divergence sentinel. It is calibrated for gross
	// lock-step breaks only — corrupt values, wrong units, a replica
	// conditioned on the wrong stream — which land orders of magnitude
	// past ε. Healthy lock-step runs show heartbeat deviations up to ~7×ε
	// (measured on garden across seeds), and even a replica built from the
	// wrong model stays in that band because heartbeats keep resyncing its
	// state; subtle divergence is indistinguishable live and belongs to the
	// offline auditor (kenaudit).
	divergenceDevEps = 25
	// queuePressure degrades a tenant whose queue depth exceeds this
	// fraction of QueueCap (disabled when QueueCap is 0).
	queuePressure = 0.8
)

// Config sizes and polices the monitor.
type Config struct {
	// Window is the rolling SLO window width (default 60s).
	Window time.Duration
	// StaleAfter marks an active tenant stale when no frame has applied
	// for this long (default 10s).
	StaleAfter time.Duration
	// LatencyBudget is the ingest→apply latency above which an ε
	// deviation counts as a served violation (default 100ms).
	LatencyBudget time.Duration
	// QueueCap is the tenant frame budget (for pressure and reporting).
	QueueCap int
	// FeedCapacity bounds the event ring (default DefaultFeedCapacity).
	FeedCapacity int
	// SyncEvery is the drain goroutine's poll interval (default 250ms).
	SyncEvery time.Duration
	// Obs receives the slo_* metric mirror.
	Obs *obs.Observer

	// now is the test clock (default time.Now).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 60 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 10 * time.Second
	}
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 100 * time.Millisecond
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 250 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// numBuckets fixes the rolling window's resolution: the window is split
// into 60 slots rotated in place, so memory per tenant is constant.
const numBuckets = 60

// latCap bounds the per-tenant latency reservoir (most recent samples).
const latCap = 256

// bucket accumulates one window slot.
type bucket struct {
	slot       int64 // bucket ordinal since the epoch; 0 = unused
	frames     int64
	values     int64
	heartbeats int64
	deviations int64
	violations int64
	sheds      int64
	maxDev     float64 // max |pred−value|/ε in the slot
	hbMaxDev   float64 // same, heartbeat frames only
}

// tenantState is the monitor's per-tenant bookkeeping.
type tenantState struct {
	life        Lifecycle
	firstSeen   time.Time
	lastApplied time.Time // zero until the first apply
	lastStep    uint64
	queueDepth  int

	totalFrames     int64
	totalViolations int64
	totalSheds      int64

	buckets [numBuckets]bucket
	lat     [latCap]float64 // seconds; ring of the latest latencies
	latN    int64           // total latency samples ever
}

// WindowStats is the windowed view of one tenant's SLOs — the payload of
// GET /v1/slo and of each /v1/health tenant entry.
type WindowStats struct {
	// Seconds is the window width the numbers below cover.
	Seconds float64 `json:"seconds"`
	// Frames/Values/Heartbeats applied inside the window.
	Frames     int64 `json:"frames"`
	Values     int64 `json:"values"`
	Heartbeats int64 `json:"heartbeats"`
	// Deviations counts reported values whose pre-apply prediction
	// missed ε; DeviationRate is per reported value.
	Deviations    int64   `json:"deviations"`
	DeviationRate float64 `json:"deviation_rate"`
	// Violations counts deviations served beyond the latency budget;
	// ViolationRate is per reported value — the live ε-violation rate.
	Violations    int64   `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`
	// MaxDevEps is the worst |prediction − value| / ε in the window.
	MaxDevEps float64 `json:"max_dev_eps"`
	// HeartbeatMaxDevEps is the same over heartbeat frames only — the
	// divergence sentinel's input.
	HeartbeatMaxDevEps  float64 `json:"heartbeat_max_dev_eps"`
	DivergenceSuspected bool    `json:"divergence_suspected"`
	// StalenessSeconds is the time since the last applied frame (since
	// first tracking, when nothing has applied yet).
	StalenessSeconds float64 `json:"staleness_seconds"`
	// Ingest→apply latency quantiles over the recent-sample reservoir.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP95 float64 `json:"latency_p95_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// QueueDepth/QueueCap: last observed queue occupancy vs the budget.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Sheds inside the window (and the tenant lifetime total).
	Sheds      int64 `json:"sheds"`
	TotalSheds int64 `json:"total_sheds"`
	// LastStep is the step of the newest applied frame; TotalFrames and
	// TotalViolations are lifetime tallies.
	LastStep        uint64 `json:"last_step"`
	TotalFrames     int64  `json:"total_frames"`
	TotalViolations int64  `json:"total_violations"`
}

// TenantStatus is one tenant's evaluated health.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	Health Health `json:"health"`
	// Unhealthy is the daemon-aggregation verdict: true for degraded,
	// stale, shedding and failed-terminal tenants; false for ok and for
	// a clean close.
	Unhealthy bool `json:"unhealthy"`
	// Reasons are machine-readable (the Reason* constants).
	Reasons []string    `json:"reasons,omitempty"`
	Window  WindowStats `json:"window"`
}

// Monitor consumes the feed and serves windowed per-tenant SLO state.
type Monitor struct {
	cfg  Config
	feed *Feed

	mu      sync.Mutex
	tenants map[string]*tenantState
	scratch []Event
	stop    chan struct{}
	started bool
	wg      sync.WaitGroup

	lastDropped int64

	mEvents     *obs.Counter   // slo_events_total
	mDropped    *obs.Counter   // slo_feed_dropped_total
	mDeviations *obs.Counter   // slo_eps_deviations_total
	mViolations *obs.Counter   // slo_eps_violations_total
	mSheds      *obs.Counter   // slo_sheds_total
	hLatency    *obs.Histogram // slo_apply_latency_seconds
	gTracked    *obs.Gauge     // slo_tenants_tracked
	gUnhealthy  *obs.Gauge     // slo_tenants_unhealthy
}

// NewMonitor assembles a monitor and its feed. Start launches the drain
// goroutine; Sync drains inline (the HTTP handlers do, so health answers
// never lag the feed by more than the handler's own latency).
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	reg := cfg.Obs.Registry()
	reg.Describe("slo_events_total", "SLO feed events consumed by the live monitor")
	reg.Describe("slo_feed_dropped_total", "SLO feed events dropped because the ring was full")
	reg.Describe("slo_eps_deviations_total", "reported values whose pre-apply prediction missed epsilon")
	reg.Describe("slo_eps_violations_total", "epsilon deviations served beyond the latency budget")
	reg.Describe("slo_sheds_total", "tenant sheds observed by the live monitor")
	reg.Describe("slo_apply_latency_seconds", "ingest-to-apply latency of tenant frames")
	reg.Describe("slo_tenants_tracked", "tenants tracked by the live monitor")
	reg.Describe("slo_tenants_unhealthy", "tenants currently degraded, stale, shedding or failed")
	return &Monitor{
		cfg:         cfg,
		feed:        NewFeed(cfg.FeedCapacity),
		tenants:     map[string]*tenantState{},
		mEvents:     reg.Counter("slo_events_total"),
		mDropped:    reg.Counter("slo_feed_dropped_total"),
		mDeviations: reg.Counter("slo_eps_deviations_total"),
		mViolations: reg.Counter("slo_eps_violations_total"),
		mSheds:      reg.Counter("slo_sheds_total"),
		hLatency:    reg.Histogram("slo_apply_latency_seconds"),
		gTracked:    reg.Gauge("slo_tenants_tracked"),
		gUnhealthy:  reg.Gauge("slo_tenants_unhealthy"),
	}
}

// Feed returns the publish handle the applier loops write to.
func (m *Monitor) Feed() *Feed {
	if m == nil {
		return nil
	}
	return m.feed
}

// Start launches the drain goroutine. Idempotent; Close joins it.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go m.loop(m.stop)
}

// loop is the drain goroutine: joined by Close via the stop channel and
// the monitor WaitGroup.
func (m *Monitor) loop(stop <-chan struct{}) {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.Sync()
		}
	}
}

// Close stops and joins the drain goroutine, then drains the feed one
// final time so nothing published before Close is lost.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	stop, started := m.stop, m.started
	m.started = false
	m.stop = nil
	m.mu.Unlock()
	if started {
		close(stop)
		m.wg.Wait()
	}
	m.Sync()
}

// Track registers a tenant with the monitor (its staleness clock starts
// now). Called by the daemon at admission, before any event can arrive.
func (m *Monitor) Track(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenant(name)
}

// NoteLifecycle records the daemon-side lifecycle of a tenant. Nil-safe
// and allocation-free for known tenants, so the daemon state machine can
// call it from any path.
func (m *Monitor) NoteLifecycle(name string, life Lifecycle) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenant(name).life = life
}

// tenant returns (creating on first use) the named state. Caller holds mu.
func (m *Monitor) tenant(name string) *tenantState {
	ts, ok := m.tenants[name]
	if !ok {
		ts = &tenantState{firstSeen: m.cfg.now()}
		m.tenants[name] = ts
		m.gTracked.Set(float64(len(m.tenants)))
	}
	return ts
}

// Sync drains the feed into the window state and refreshes the slo_*
// metric mirror. Called by the drain goroutine, by the HTTP handlers
// before answering, and by tests for determinism.
func (m *Monitor) Sync() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.scratch = m.feed.DrainInto(m.scratch[:0])
	for i := range m.scratch {
		m.apply(&m.scratch[i])
	}
	st := m.feed.Stats()
	if d := st.Dropped - m.lastDropped; d > 0 {
		m.mDropped.Add(d)
		m.lastDropped = st.Dropped
	}
	unhealthy := 0
	for name, ts := range m.tenants {
		//lint:ignore maprange only the order-independent unhealthy count is accumulated
		if m.statusLocked(name, ts).Unhealthy {
			unhealthy++
		}
	}
	m.gUnhealthy.Set(float64(unhealthy))
}

// apply folds one event into its tenant's window. Caller holds mu.
func (m *Monitor) apply(ev *Event) {
	ts := m.tenant(ev.Tenant)
	m.mEvents.Inc()
	at := time.Unix(0, ev.AppliedNanos)
	b := m.bucketFor(ts, ev.AppliedNanos)
	switch ev.Kind {
	case KindShed:
		b.sheds++
		ts.totalSheds++
		m.mSheds.Inc()
	case KindApply:
		ts.lastApplied = at
		ts.lastStep = ev.Step
		ts.queueDepth = ev.QueueDepth
		ts.totalFrames++
		b.frames++
		b.values += int64(ev.Values)
		if ev.Heartbeat {
			b.heartbeats++
			if ev.MaxDevEps > b.hbMaxDev {
				b.hbMaxDev = ev.MaxDevEps
			}
		}
		if ev.MaxDevEps > b.maxDev {
			b.maxDev = ev.MaxDevEps
		}
		lat := time.Duration(ev.AppliedNanos - ev.EnqueuedNanos)
		if lat < 0 {
			lat = 0
		}
		ts.lat[ts.latN%latCap] = lat.Seconds()
		ts.latN++
		m.hLatency.Observe(lat.Seconds())
		if ev.Deviations > 0 {
			b.deviations += int64(ev.Deviations)
			m.mDeviations.Add(int64(ev.Deviations))
			if lat > m.cfg.LatencyBudget {
				b.violations += int64(ev.Deviations)
				ts.totalViolations += int64(ev.Deviations)
				m.mViolations.Add(int64(ev.Deviations))
			}
		}
	}
}

// bucketFor rotates the tenant's ring to the slot holding nanos.
func (m *Monitor) bucketFor(ts *tenantState, nanos int64) *bucket {
	width := int64(m.cfg.Window) / numBuckets
	if width <= 0 {
		width = int64(time.Second)
	}
	slot := nanos / width
	b := &ts.buckets[slot%numBuckets]
	if b.slot != slot {
		*b = bucket{slot: slot}
	}
	return b
}

// Status evaluates one tenant. The second return is false for a tenant
// the monitor has never seen.
func (m *Monitor) Status(name string) (TenantStatus, bool) {
	if m == nil {
		return TenantStatus{}, false
	}
	m.Sync()
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tenants[name]
	if !ok {
		return TenantStatus{}, false
	}
	return m.statusLocked(name, ts), true
}

// StatusAll evaluates every tracked tenant, sorted by name.
func (m *Monitor) StatusAll() []TenantStatus {
	if m == nil {
		return nil
	}
	m.Sync()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TenantStatus, 0, len(m.tenants))
	for name, ts := range m.tenants {
		//lint:ignore maprange the slice is sorted by tenant name below
		out = append(out, m.statusLocked(name, ts))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// FeedStats snapshots the feed's publish/drop accounting.
func (m *Monitor) FeedStats() FeedStats {
	if m == nil {
		return FeedStats{}
	}
	return m.feed.Stats()
}

// statusLocked computes the windowed stats and health verdict. Caller
// holds mu.
func (m *Monitor) statusLocked(name string, ts *tenantState) TenantStatus {
	now := m.cfg.now()
	w := m.windowLocked(ts, now)
	st := TenantStatus{Tenant: name, Window: w}
	switch ts.life {
	case LifeShed:
		st.Health = HealthShedding
		st.Unhealthy = true
		st.Reasons = append(st.Reasons, ReasonShed)
		return st
	case LifeFailed:
		st.Health = HealthTerminal
		st.Unhealthy = true
		st.Reasons = append(st.Reasons, ReasonFailed)
		return st
	case LifeClosed:
		st.Health = HealthTerminal
		st.Reasons = append(st.Reasons, ReasonClosed)
		return st
	}
	if w.StalenessSeconds > m.cfg.StaleAfter.Seconds() {
		st.Health = HealthStale
		st.Unhealthy = true
		st.Reasons = append(st.Reasons, ReasonStale)
		return st
	}
	if w.ViolationRate > maxViolationRate {
		st.Reasons = append(st.Reasons, ReasonViolationRate)
	}
	if w.DivergenceSuspected {
		st.Reasons = append(st.Reasons, ReasonDivergence)
	}
	if m.cfg.QueueCap > 0 && float64(w.QueueDepth) > queuePressure*float64(m.cfg.QueueCap) {
		st.Reasons = append(st.Reasons, ReasonQueuePressure)
	}
	if len(st.Reasons) > 0 {
		st.Health = HealthDegraded
		st.Unhealthy = true
		return st
	}
	st.Health = HealthOK
	return st
}

// windowLocked sums the live buckets. Caller holds mu.
func (m *Monitor) windowLocked(ts *tenantState, now time.Time) WindowStats {
	width := int64(m.cfg.Window) / numBuckets
	if width <= 0 {
		width = int64(time.Second)
	}
	nowSlot := now.UnixNano() / width
	minSlot := nowSlot - numBuckets + 1
	w := WindowStats{
		Seconds:         m.cfg.Window.Seconds(),
		QueueDepth:      ts.queueDepth,
		QueueCap:        m.cfg.QueueCap,
		TotalSheds:      ts.totalSheds,
		LastStep:        ts.lastStep,
		TotalFrames:     ts.totalFrames,
		TotalViolations: ts.totalViolations,
	}
	for i := range ts.buckets {
		b := &ts.buckets[i]
		if b.slot == 0 || b.slot < minSlot || b.slot > nowSlot {
			continue
		}
		w.Frames += b.frames
		w.Values += b.values
		w.Heartbeats += b.heartbeats
		w.Deviations += b.deviations
		w.Violations += b.violations
		w.Sheds += b.sheds
		if b.maxDev > w.MaxDevEps {
			w.MaxDevEps = b.maxDev
		}
		if b.hbMaxDev > w.HeartbeatMaxDevEps {
			w.HeartbeatMaxDevEps = b.hbMaxDev
		}
	}
	if w.Values > 0 {
		w.DeviationRate = float64(w.Deviations) / float64(w.Values)
		w.ViolationRate = float64(w.Violations) / float64(w.Values)
	}
	w.DivergenceSuspected = w.HeartbeatMaxDevEps >= divergenceDevEps
	since := ts.lastApplied
	if since.IsZero() {
		since = ts.firstSeen
	}
	if !since.IsZero() {
		w.StalenessSeconds = now.Sub(since).Seconds()
		if w.StalenessSeconds < 0 {
			w.StalenessSeconds = 0
		}
	}
	w.LatencyP50, w.LatencyP95, w.LatencyP99 = latQuantiles(ts)
	return w
}

// latQuantiles sorts a copy of the latency reservoir and reads the
// 50th/95th/99th percentiles (zeros with no samples).
func latQuantiles(ts *tenantState) (p50, p95, p99 float64) {
	n := int(ts.latN)
	if n > latCap {
		n = latCap
	}
	if n == 0 {
		return 0, 0, 0
	}
	var tmp [latCap]float64
	copy(tmp[:n], ts.lat[:n])
	s := tmp[:n]
	sort.Float64s(s)
	pick := func(q float64) float64 {
		i := int(q*float64(n-1) + 0.5)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return s[i]
	}
	return pick(0.50), pick(0.95), pick(0.99)
}
