package core

import (
	"fmt"
	"math"
	"math/rand"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/obs"
)

// This file is the replicated-clique kernel: the per-clique loop of §3.2
// behind every transport. Each step both replicas advance through the
// model transition, the source chooses the minimal report against its
// replica, and each replica conditions on what it sent or received. Ken
// and LossyKen run both replicas in one process, simnet's DistributedKen
// runs them on either side of a simulated radio, and stream's Source and
// Replica each run one side across a real connection. The transports add
// only what differs: loss coins, radio unicasts with ARQ and failure
// detection, quantisation and framing.

// Sides selects which of a clique's two replicas a process runs.
type Sides uint8

const (
	SourceSide Sides = 1 << iota // the replica at the root, which chooses reports
	SinkSide                     // the replica at the base station, which answers
	BothSides  = SourceSide | SinkSide
)

// Report is one clique's observations for a step: clique-local slots,
// ascending, with their values.
type Report struct {
	Slots  []int
	Values []float64
}

// Len returns the number of values in the report.
func (r *Report) Len() int { return len(r.Slots) }

// Reset empties the report, keeping its capacity.
func (r *Report) Reset() { r.Slots, r.Values = r.Slots[:0], r.Values[:0] }

// Add sets slot's value, keeping Slots ascending (O(1) for slots added in
// order).
//
//ken:hotpath fills the report within the clique-size capacity FitCliques reserves
func (r *Report) Add(slot int, v float64) {
	k := len(r.Slots)
	for k > 0 && r.Slots[k-1] > slot {
		k--
	}
	if k > 0 && r.Slots[k-1] == slot {
		r.Values[k-1] = v
		return
	}
	//lint:ignore hotalloc distinct clique slots never outgrow the clique-size capacity
	r.Slots, r.Values = append(r.Slots, 0), append(r.Values, 0)
	copy(r.Slots[k+1:], r.Slots[k:])
	copy(r.Values[k+1:], r.Values[k:])
	r.Slots[k], r.Values[k] = slot, v
}

// Heartbeat is the §6 resynchronisation schedule all transports share:
// with interval H > 0 every H-th step is a heartbeat, the first at step H;
// H = 0 never beats.
type Heartbeat struct{ every, steps int }

// NewHeartbeat returns the schedule for interval every.
func NewHeartbeat(every int) Heartbeat { return Heartbeat{every: every} }

// Tick advances the schedule one step and reports whether it is a heartbeat.
func (h *Heartbeat) Tick() bool {
	h.steps++
	return h.every > 0 && h.steps%h.every == 0
}

// Clique is one clique's replicated state: its source and/or sink replica,
// its bounds, and the reused scratch of the protocol loop. A step runs
// Gather, Step, Choose, Condition and Answer; a suppressed step allocates
// nothing.
type Clique struct {
	// Sent is the source's report for the step, filled by Choose. Change
	// it only through the Clique's methods.
	Sent Report
	// Got is what reached the sink, for transports that can lose values or
	// carry them in frames; a lossless link conditions the sink on Sent.
	Got Report

	members     []int     // global attribute indices, ascending
	root        int       // the node running the source replica
	eps         []float64 // clique-local bounds
	src, sink   model.Model
	srcW, sinkW model.MeanWriter // allocation-free means; nil if unsupported
	local       []float64        // the members' readings
	avail       []bool           // which readings reached the root
	mean, pred  []float64        // mean scratch; the sink's captured prediction
	cond        map[int]float64  // a report as model.Condition takes it
	condIsSent  bool             // cond holds Sent
}

// FitCliques fits one model per clique of part on the clique's training
// columns and builds the requested replicas of each. eps holds the
// per-attribute bounds the source enforces. fit builds a model from
// clique-local training columns; nil fits the default LinearGaussian with
// fitCfg. Models must satisfy the replicated determinism contract: clones
// stepped and conditioned identically stay identical.
func FitCliques(part *cliques.Partition, train [][]float64, eps []float64, fitCfg model.FitConfig,
	fit func(train [][]float64) (model.Model, error), sides Sides) ([]Clique, error) {
	if part == nil || len(train) == 0 {
		return nil, fmt.Errorf("core: fitting cliques needs a partition and training data")
	}
	if len(eps) != len(train[0]) {
		return nil, fmt.Errorf("core: eps dim %d, training dim %d", len(eps), len(train[0]))
	}
	if err := part.Validate(len(eps)); err != nil {
		return nil, err
	}
	if fit == nil {
		fit = func(train [][]float64) (model.Model, error) { return model.FitLinearGaussian(train, fitCfg) }
	}
	out := make([]Clique, 0, len(part.Cliques))
	for _, pc := range part.Cliques {
		cols := make([][]float64, len(train))
		for t, row := range train {
			cols[t] = make([]float64, len(pc.Members))
			for i, g := range pc.Members {
				cols[t][i] = row[g]
			}
		}
		mdl, err := fit(cols)
		if err != nil {
			return nil, fmt.Errorf("core: fitting clique %v: %w", pc.Members, err)
		}
		if mdl == nil || mdl.Dim() != len(pc.Members) {
			return nil, fmt.Errorf("core: model factory returned wrong dimension for clique %v", pc.Members)
		}
		local := make([]float64, len(pc.Members))
		for i, g := range pc.Members {
			if eps[g] <= 0 {
				return nil, fmt.Errorf("core: non-positive epsilon %v for attribute %d", eps[g], g)
			}
			local[i] = eps[g]
		}
		out = append(out, newClique(pc.Members, pc.Root, local, mdl, sides))
	}
	return out, nil
}

// newClique builds a clique's replicas as clones of mdl, with fresh scratch.
func newClique(members []int, root int, eps []float64, mdl model.Model, sides Sides) Clique {
	m := len(members)
	c := Clique{
		Sent:    Report{make([]int, 0, m), make([]float64, 0, m)},
		Got:     Report{make([]int, 0, m), make([]float64, 0, m)},
		members: append([]int(nil), members...), root: root, eps: eps,
		local: make([]float64, m), avail: make([]bool, m),
		mean: make([]float64, m), pred: make([]float64, m),
		cond: make(map[int]float64, m),
	}
	if sides&SourceSide != 0 {
		c.src = mdl.Clone()
		c.srcW, _ = c.src.(model.MeanWriter)
	}
	if sides&SinkSide != 0 {
		c.sink = mdl.Clone()
		c.sinkW, _ = c.sink.(model.MeanWriter)
	}
	return c
}

// Members returns the clique's global attribute indices, ascending
// (read-only).
func (c *Clique) Members() []int { return c.members }

// Root returns the node that runs the clique's source replica.
func (c *Clique) Root() int { return c.root }

// Gather reads the members' values out of a full row, all available.
//
//ken:hotpath copies into the clique's reading scratch
func (c *Clique) Gather(truth []float64) {
	for i, g := range c.members {
		c.local[i], c.avail[i] = truth[g], true
	}
}

// SetAvailable marks whether slot i's reading reached the root; Choose
// checks and reports only available readings.
func (c *Clique) SetAvailable(i int, ok bool) { c.avail[i] = ok }

// Step advances the clique's replicas through the model transition. With
// capture set, the sink's prediction — what it would answer had no report
// arrived — is kept for TraceReport.
//
//ken:hotpath one transition per replica; the capture reuses clique scratch
func (c *Clique) Step(capture bool) {
	if c.src != nil {
		c.src.Step()
	}
	if c.sink != nil {
		c.sink.Step()
		if capture {
			meanOf(c.sink, c.sinkW, c.pred)
		}
	}
}

// Choose fills Sent by the greedy search over the available readings; a
// heartbeat reports every available reading instead.
func (c *Clique) Choose(heartbeat bool) error { return c.choose(nil, heartbeat) }

// policy is Ken's report search: greedy (nil or zero), exact subset
// enumeration, or §6 probabilistic reporting.
type policy struct {
	exhaustive bool
	prob       *ProbConfig
	rng        *rand.Rand
	mFlips     *obs.Counter // ken_prob_flips_total
	mSuppress  *obs.Counter // ken_prob_suppressed_total
}

// choose fills Sent under policy p. Fast path: when the source prediction
// already meets every available bound, every policy returns the empty set
// — greedy and exhaustive accept the empty subset, probabilistic flips no
// coin, leaving its rng stream untouched — so the search is skipped.
// Exhaustive keeps its dimension guard, so oversized cliques keep failing
// deterministically; it assumes every reading is available.
//
//ken:hotpath suppressed steps stop at the fast path
func (c *Clique) choose(p *policy, heartbeat bool) error {
	c.Sent.Reset()
	c.condIsSent = false
	if heartbeat {
		for i, v := range c.local {
			if c.avail[i] {
				c.Sent.Add(i, v)
			}
		}
		return nil
	}
	if (p == nil || !p.exhaustive || len(c.members) <= 20) && c.predictionHolds() {
		return nil
	}
	return c.search(p)
}

// predictionHolds reports whether the source mean is within ε of every
// available reading. Models without a MeanWriter always search.
func (c *Clique) predictionHolds() bool {
	if c.srcW == nil || c.srcW.MeanInto(c.mean) != nil {
		return false
	}
	for i, v := range c.local {
		if c.avail[i] && math.Abs(c.mean[i]-v) > c.eps[i] {
			return false
		}
	}
	return true
}

// search runs policy p's report search once the prediction has missed.
func (c *Clique) search(p *policy) error {
	var rep map[int]float64
	var err error
	switch {
	case p != nil && p.prob != nil:
		c.chooseProbabilistic(p)
		return nil
	case p != nil && p.exhaustive:
		rep, err = model.ChooseReportExhaustive(c.src, c.local, c.eps)
	default:
		rep, err = model.ChooseReportGreedy(c.src, c.local, c.eps, c.avail)
	}
	if err != nil {
		return err
	}
	for i := range c.local {
		if v, ok := rep[i]; ok {
			c.Sent.Add(i, v)
		}
	}
	// The search's own map conditions the replicas; rebuilding it from
	// Sent costs a measurable share of a reporting step.
	c.cond, c.condIsSent = rep, true
	return nil
}

// chooseProbabilistic implements §6's relaxed step function: readings
// within bounds are never reported; a violating one flips a coin whose
// success probability rises with the violation ratio, so small overshoots
// are sometimes suppressed while gross ones almost always go out.
func (c *Clique) chooseProbabilistic(p *policy) {
	mean := meanOf(c.src, c.srcW, c.mean)
	for i, v := range c.local {
		ratio := math.Abs(mean[i]-v) / c.eps[i]
		if !c.avail[i] || ratio <= 1 {
			continue
		}
		p.mFlips.Inc()
		if p.rng.Float64() < 1-math.Exp(-p.prob.Steepness*(ratio-1)) {
			c.Sent.Add(i, v)
		} else {
			p.mSuppress.Inc() // a violation the relaxation leaves unreported
		}
	}
}

// Quantize snaps Sent's values onto the grid of step res, so the source
// conditions on exactly the values a quantised wire delivers.
func (c *Clique) Quantize(res float64) {
	for k, v := range c.Sent.Values {
		c.Sent.Values[k] = math.Round(v/res) * res
	}
	c.condIsSent = false
}

// Condition conditions the clique's replicas on the step's report: the
// source replica, if this process runs one, on Sent — the source believes
// everything it transmitted — and the sink replica, if any, on got: Sent
// over a lossless link, otherwise what arrived.
//
//ken:hotpath conditions through the clique's reused observation map
func (c *Clique) Condition(got *Report) error {
	if c.src != nil {
		if err := c.src.Condition(c.condOf(&c.Sent)); err != nil {
			return err
		}
	}
	if c.sink == nil {
		return nil
	}
	return c.sink.Condition(c.condOf(got))
}

// condOf returns rep as the observation map model.Condition takes,
// refilling the clique's map unless it already holds Sent.
func (c *Clique) condOf(rep *Report) map[int]float64 {
	if rep == &c.Sent && c.condIsSent {
		return c.cond
	}
	clear(c.cond)
	for k, i := range rep.Slots {
		c.cond[i] = rep.Values[k]
	}
	c.condIsSent = rep == &c.Sent
	return c.cond
}

// SinkMean returns the sink replica's mean in slot order, in clique
// scratch valid until the clique's next call.
func (c *Clique) SinkMean() []float64 { return meanOf(c.sink, c.sinkW, c.mean) }

// Answer writes the sink replica's mean into the members' entries of est.
//
//ken:hotpath scatters through the clique's mean scratch
func (c *Clique) Answer(est []float64) {
	mean := c.SinkMean()
	for i, g := range c.members {
		est[g] = mean[i]
	}
}

// meanOf writes m's mean into dst, through its MeanWriter w when non-nil.
func meanOf(m model.Model, w model.MeanWriter, dst []float64) []float64 {
	if w == nil || w.MeanInto(dst) != nil {
		copy(dst, m.Mean())
	}
	return dst
}

// TraceReport emits the report event for Sent, with the prediction Step
// captured: as a child span of the epoch span sp when it is active, else
// as a plain event on tr (nil: nowhere). It returns the report span (nil
// if none) for the transport's events and the sink's apply to nest under.
func (c *Clique) TraceReport(tr *obs.Tracer, sp *obs.Span, step int64, ci int) *obs.Span {
	n := c.Sent.Len()
	if n == 0 || (tr == nil && !sp.Active()) {
		return nil
	}
	attrs, preds, epsR := make([]int, n), make([]float64, n), make([]float64, n)
	values := append([]float64(nil), c.Sent.Values...)
	for k, i := range c.Sent.Slots {
		attrs[k], preds[k], epsR[k] = c.members[i], c.pred[i], c.eps[i]
	}
	ev := obs.Event{
		Type: obs.EvReport, Step: step, Clique: ci, Node: c.root, Attrs: attrs, Values: values,
		Payload: &obs.Payload{Predicted: preds, Observed: values, Eps: epsR, Bytes: obs.WireBytesPerValue * n},
	}
	if !sp.Active() {
		tr.Emit(ev)
		return nil
	}
	rs := sp.Child()
	rs.Emit(ev)
	return rs
}

// TraceApply emits the sink's apply of rep at node: as a child span of the
// report span rs when it is active, else as a plain event on tr (nil:
// nowhere).
func (c *Clique) TraceApply(tr *obs.Tracer, rs *obs.Span, step int64, ci, node int, rep *Report) {
	n := rep.Len()
	if n == 0 || (tr == nil && !rs.Active()) {
		return
	}
	attrs := make([]int, n)
	for k, i := range rep.Slots {
		attrs[k] = c.members[i]
	}
	ev := obs.Event{Type: obs.EvApply, Step: step, Clique: ci, Node: node,
		Attrs: attrs, Values: append([]float64(nil), rep.Values...), N: n}
	if rs.Active() {
		rs.Child().Emit(ev)
	} else {
		tr.Emit(ev)
	}
}

// ReportRate replays training rows through a copy of the source replica
// and returns the fraction of steps that reported — the clique's per-step
// report probability m_C that failure detection needs (§6). A search error
// ends the replay early.
func (c *Clique) ReportRate(train [][]float64) float64 {
	probe := newClique(c.members, c.root, c.eps, c.src, SourceSide)
	reports := 0
	for _, row := range train {
		probe.Gather(row)
		probe.Step(false)
		if probe.Choose(false) != nil {
			break
		}
		if probe.Sent.Len() > 0 {
			reports++
		}
		if probe.Condition(&probe.Sent) != nil {
			break
		}
	}
	if len(train) == 0 {
		return 0
	}
	return float64(reports) / float64(len(train))
}
