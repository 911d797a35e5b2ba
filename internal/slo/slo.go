// Package slo is kensinkd's live SLO monitor: the in-process half of the
// audit machinery, attached to running tenants instead of a finished
// trace. The daemon's applier loops publish one fixed-size Event per
// applied frame (and per shed) into a bounded, preallocated Feed — the
// hot path never allocates and never blocks; when the ring is full the
// event is counted as dropped instead of queued. A Monitor drains the
// feed on its own joined goroutine and maintains per-tenant
// rolling-window state: ε-deviation and ε-violation rates measured from
// the replica's pre-apply predictions, a staleness watermark, an
// ingest→apply latency window, queue depth and shed counts, and a
// replica-divergence sentinel fed by heartbeat frames.
//
// # What "ε violation" means live
//
// Offline (kenaudit) the ε bound is checked against ground truth. A live
// sink has no truth except what is reported, so the monitor measures the
// operational form of the guarantee: when a frame carries a value whose
// pre-apply prediction missed its ε (an ε deviation — the normal reason a
// report exists), the answers served while that frame sat in the tenant's
// queue were out of contract. A deviation is therefore escalated to a
// counted violation only when the frame's ingest→apply latency exceeded
// the configured latency budget: the daemon served a knowably-stale
// answer for longer than the budget allows. On a healthy daemon latency
// is microseconds and the violation rate is zero even while deviations
// tick along at the tenant's natural report rate.
//
// # The divergence sentinel
//
// Heartbeat frames carry every attribute, so they are the one moment the
// sink can compare its full model state against ground truth. The
// comparison is weaker than it looks: heartbeat steps skip suppression,
// so a heartbeat deviation of a few ε is ordinary one-step model error
// (the value would have been reported in a normal step), and heartbeats
// re-condition on every value, healing state drift each round — healthy
// lock-step runs show heartbeat deviations up to ~7×ε. What a heartbeat
// CAN expose live is a gross lock-step break — corrupt values, wrong
// units, a replica fed the wrong stream — which lands orders of
// magnitude past ε. The sentinel flags `divergence-suspected` when a
// windowed heartbeat deviation exceeds 25 multiples of ε: a heuristic for the gross class only; subtle divergence
// is kenaudit's offline silent-divergence invariant.
package slo

import (
	"sync"
)

// Kind tags a feed event.
type Kind uint8

const (
	// KindApply: one frame was folded into the tenant's replica.
	KindApply Kind = iota + 1
	// KindShed: the tenant overflowed its frame budget and was shed.
	KindShed
)

// Event is one fixed-size feed record. Events are published by value and
// buffered in a preallocated ring, so the applier hot path stays
// allocation-free (TestAllocBudgetFeedPublish pins it).
type Event struct {
	// Tenant names the session the event belongs to.
	Tenant string
	// Kind is the event type.
	Kind Kind
	// Step is the frame's protocol step.
	Step uint64
	// Values counts the reported values the frame carried.
	Values int
	// Heartbeat marks a full-value heartbeat frame.
	Heartbeat bool
	// Deviations counts reported values whose pre-apply prediction
	// missed its ε (stream.ApplyStats.Deviations).
	Deviations int
	// MaxDevEps is the largest |prediction − value| / ε seen in the frame.
	MaxDevEps float64
	// EnqueuedNanos/AppliedNanos are UnixNano stamps taken when the
	// reader queued the frame and when the applier finished folding it
	// in; their difference is the ingest→apply latency.
	EnqueuedNanos int64
	AppliedNanos  int64
	// QueueDepth is the tenant's queue occupancy after the apply.
	QueueDepth int
}

// Feed is the bounded in-process event tap between the daemon's applier
// loops and the Monitor. Publish is allocation-free and non-blocking:
// when the ring is full the event is dropped and counted, never queued —
// backpressure from a slow monitor must not reach the apply hot path.
type Feed struct {
	mu        sync.Mutex
	buf       []Event
	start     int // index of the oldest buffered event
	n         int // buffered count
	published int64
	dropped   int64
}

// DefaultFeedCapacity bounds the ring when the config does not.
const DefaultFeedCapacity = 4096

// NewFeed preallocates a ring of the given capacity (DefaultFeedCapacity
// when non-positive).
func NewFeed(capacity int) *Feed {
	if capacity <= 0 {
		capacity = DefaultFeedCapacity
	}
	return &Feed{buf: make([]Event, capacity)}
}

// Publish appends ev to the ring, or counts it as dropped when the ring
// is full. Nil-safe, allocation-free, non-blocking — callable from a
// //ken:hotpath applier loop.
func (f *Feed) Publish(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == len(f.buf) {
		f.dropped++
		return
	}
	pos := f.start + f.n
	if pos >= len(f.buf) {
		pos -= len(f.buf)
	}
	f.buf[pos] = ev
	f.n++
	f.published++
}

// DrainInto appends every buffered event to dst in publish order and
// empties the ring. The returned slice replaces dst for the next call.
func (f *Feed) DrainInto(dst []Event) []Event {
	if f == nil {
		return dst
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.n > 0 {
		dst = append(dst, f.buf[f.start])
		f.start++
		if f.start == len(f.buf) {
			f.start = 0
		}
		f.n--
	}
	return dst
}

// FeedStats is the feed's lifetime accounting. Dropped counts events the
// full ring refused — a nonzero, growing value means the monitor is not
// keeping up and the SLO windows undercount.
type FeedStats struct {
	Published int64 `json:"published"`
	Dropped   int64 `json:"dropped"`
}

// Stats snapshots the lifetime publish/drop counters.
func (f *Feed) Stats() FeedStats {
	if f == nil {
		return FeedStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedStats{Published: f.published, Dropped: f.dropped}
}
