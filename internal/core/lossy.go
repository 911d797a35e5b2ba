package core

import (
	"fmt"
	"math/rand"

	"ken/internal/cliques"
	"ken/internal/obs"
)

// LossyConfig parameterises the message-loss robustness extension (§6
// "Robustness to Message Loss"). Reports are dropped independently with
// LossRate; every HeartbeatEvery steps the source transmits all current
// values as a heartbeat, re-synchronising the replicas. Because the models
// are Markovian, conditioning both replicas on the full heartbeat makes the
// future independent of the divergent past — inconsistencies are transient.
type LossyConfig struct {
	// LossRate is the probability a report message never reaches the sink.
	LossRate float64
	// HeartbeatEvery triggers a full-value heartbeat each time this many
	// steps elapse; 0 disables heartbeats.
	HeartbeatEvery int
	// Seed drives the loss coin flips.
	Seed int64
}

// LossyKen runs the Ken protocol over an unreliable channel. The source
// conditions its replica on everything it sends (it cannot know what was
// lost); the sink conditions only on what arrives, so the replicas diverge
// until the next heartbeat. Run's audit counts the resulting ε violations.
type LossyKen struct {
	ken  *Ken
	cfg  LossyConfig
	rng  *rand.Rand
	hb   Heartbeat
	lost []int // the current clique's dropped attributes, for the trace

	// Heartbeats counts heartbeat rounds issued.
	Heartbeats int
	// LostMessages counts dropped report values.
	LostMessages int
}

var _ Scheme = (*LossyKen)(nil)

// NewLossyKen builds a Ken scheme (from kcfg) wrapped with loss injection.
func NewLossyKen(kcfg KenConfig, lcfg LossyConfig) (*LossyKen, error) {
	if lcfg.LossRate < 0 || lcfg.LossRate >= 1 {
		return nil, fmt.Errorf("core: loss rate %v outside [0,1)", lcfg.LossRate)
	}
	if lcfg.HeartbeatEvery < 0 {
		return nil, fmt.Errorf("core: negative heartbeat interval %d", lcfg.HeartbeatEvery)
	}
	if kcfg.Prob != nil {
		return nil, fmt.Errorf("core: probabilistic reporting and loss injection cannot be combined")
	}
	k, err := NewKen(kcfg)
	if err != nil {
		return nil, err
	}
	return &LossyKen{
		ken:  k,
		cfg:  lcfg,
		rng:  rand.New(rand.NewSource(lcfg.Seed)),
		hb:   NewHeartbeat(lcfg.HeartbeatEvery),
		lost: make([]int, 0, kcfg.Partition.MaxCliqueSize()),
	}, nil
}

// Name implements Scheme.
func (l *LossyKen) Name() string { return l.ken.name + "-lossy" }

// Dim implements Scheme.
func (l *LossyKen) Dim() int { return l.ken.n }

// Partition returns the wrapped scheme's Disjoint-Cliques partition.
func (l *LossyKen) Partition() *cliques.Partition { return l.ken.Partition() }

// BeginEpoch implements EpochScoped by forwarding the replay driver's
// epoch span to the wrapped scheme.
func (l *LossyKen) BeginEpoch(sp *obs.Span) { l.ken.BeginEpoch(sp) }

// Step implements Scheme: Ken's step over the lossy link. The returned
// estimate slice is reused across calls, as for Ken.Step.
func (l *LossyKen) Step(truth []float64) ([]float64, StepStats, error) { return l.ken.step(truth, l) }

// tick advances the heartbeat schedule. Heartbeats carry every clique
// value and are delivered reliably (acked end-to-end).
func (l *LossyKen) tick() bool {
	if !l.hb.Tick() {
		return false
	}
	k := l.ken
	l.Heartbeats++
	k.mHeartbeats.Inc()
	if k.tracer != nil {
		k.emit(k.span, obs.Event{Type: obs.EvResync, Step: k.stepN + 1, Clique: -1, Node: -1})
	}
	return true
}

// transmit delivers c's report to the sink subject to loss (heartbeats
// exempt) and returns what arrived. Loss coins are flipped in ascending
// slot order so a fixed seed reproduces the same loss pattern run after
// run.
//
//ken:hotpath a suppressed clique flips no coin
func (l *LossyKen) transmit(c *Clique, heartbeat bool) *Report {
	l.lost = l.lost[:0]
	if heartbeat || l.cfg.LossRate <= 0 {
		return &c.Sent
	}
	c.Got.Reset()
	for k, i := range c.Sent.Slots {
		if l.rng.Float64() < l.cfg.LossRate {
			l.LostMessages++
			l.ken.mLostReports.Inc()
			//lint:ignore hotalloc lost holds at most one clique's members, the capacity NewLossyKen reserves
			l.lost = append(l.lost, c.members[i])
			continue
		}
		c.Got.Add(i, c.Sent.Values[k])
	}
	return &c.Got
}

// traceDrops emits the values transmit lost as a child of the report span
// rs (or unspanned when none is active).
func (l *LossyKen) traceDrops(rs *obs.Span, ci int, c *Clique) {
	k := l.ken
	if len(l.lost) == 0 || k.tracer == nil {
		return
	}
	ev := obs.Event{
		Type: obs.EvDrop, Step: k.stepN, Clique: ci, Node: c.root,
		Attrs: append([]int(nil), l.lost...), Detail: "loss",
	}
	if rs.Active() {
		rs.Child().Emit(ev)
	} else {
		k.tracer.Emit(ev)
	}
}
