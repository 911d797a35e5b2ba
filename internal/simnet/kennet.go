package simnet

import (
	"fmt"
	"math"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/obs"
)

// Program is a distributed data-collection protocol executing over the
// simulated network, one Epoch call per sampling period.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Epoch feeds the ground-truth readings of all sensor nodes for one
	// sampling period and returns the base station's view.
	Epoch(truth []float64) (EpochResult, error)
}

// EpochResult is the base station's per-epoch outcome.
type EpochResult struct {
	// Estimates is the base station's answer vector (one per node).
	Estimates []float64
	// ValuesDelivered counts attribute values that reached the base.
	ValuesDelivered int
	// Violations counts nodes whose estimate missed ε this epoch — caused
	// only by message loss or dead nodes; zero on a clean network.
	Violations int
	// Stale flags estimates served from a clique the base-station failure
	// detector currently suspects — graceful degradation instead of
	// silently serving possibly-dead sources. Nil when failure detection
	// is disabled (KenNetConfig.FailureAlpha == 0).
	Stale []bool
	// SuspectedCliques counts cliques currently under suspicion.
	SuspectedCliques int
}

// KenNetConfig tunes DistributedKen's reliability layer. The zero value
// reproduces the bare protocol (no heartbeats, no failure detection);
// message-level ARQ is configured separately on the Radio.
type KenNetConfig struct {
	// HeartbeatEvery makes every HeartbeatEvery-th epoch a heartbeat: the
	// root ships ALL values it collected (not the minimal report set),
	// re-synchronising the sink replica so divergence after loss is
	// transient per the Markov argument of §6. 0 disables.
	HeartbeatEvery int
	// FailureAlpha, when > 0, wires one core.FailureDetector per clique
	// at the base station, fed by report arrivals: a clique whose silence
	// is less probable than FailureAlpha under its fitted report rate is
	// suspected and its estimates are flagged Stale in EpochResult.
	FailureAlpha float64
}

// DistributedKen runs Ken as true node programs over the simulator:
// clique members unicast their readings to the clique root every epoch
// (intra-source), the root executes the source replica and unicasts each
// report value to the base (source-sink, one data unit per message as in
// §5.2), and the base executes the sink replicas.
//
// Unlike core.Ken — which scores an idealised protocol — DistributedKen
// inherits the network's failure modes: collection messages from dying
// members leave the root partially informed, lost reports desynchronise
// the replicas, and dead roots silence whole cliques.
type DistributedKen struct {
	net *Network
	eps []float64
	n   int
	cl  []core.Clique           // source replica at the root, sink replica at the base
	det []*core.FailureDetector // per clique at the base; nil when detection is off
	cfg KenNetConfig
	hb  core.Heartbeat
}

var _ Program = (*DistributedKen)(nil)

// NewDistributedKen fits per-clique models and installs the node programs
// with the bare protocol (KenNetConfig zero value).
func NewDistributedKen(net *Network, part *cliques.Partition, train [][]float64, eps []float64, fitCfg model.FitConfig) (*DistributedKen, error) {
	return NewDistributedKenConfig(net, part, train, eps, fitCfg, KenNetConfig{})
}

// NewDistributedKenConfig is NewDistributedKen with an explicit
// reliability configuration. Instrument the network before constructing
// the program so the failure detectors share its tracer.
func NewDistributedKenConfig(net *Network, part *cliques.Partition, train [][]float64, eps []float64, fitCfg model.FitConfig, cfg KenNetConfig) (*DistributedKen, error) {
	if net == nil {
		return nil, fmt.Errorf("simnet: nil network")
	}
	n := len(eps)
	if n != net.top.N() {
		return nil, fmt.Errorf("simnet: eps dim %d, network has %d nodes", n, net.top.N())
	}
	if cfg.HeartbeatEvery < 0 {
		return nil, fmt.Errorf("simnet: heartbeat interval %d must be >= 0", cfg.HeartbeatEvery)
	}
	if cfg.FailureAlpha < 0 || cfg.FailureAlpha >= 1 {
		return nil, fmt.Errorf("simnet: failure alpha %v outside [0,1)", cfg.FailureAlpha)
	}
	cl, err := core.FitCliques(part, train, eps, fitCfg, nil, core.BothSides)
	if err != nil {
		return nil, err
	}
	d := &DistributedKen{net: net, eps: append([]float64(nil), eps...), n: n, cl: cl,
		det: make([]*core.FailureDetector, len(cl)), cfg: cfg, hb: core.NewHeartbeat(cfg.HeartbeatEvery)}
	if cfg.FailureAlpha > 0 {
		for ci := range cl {
			c := &cl[ci]
			det, err := core.NewFailureDetector(reportRate(c, train, cfg.HeartbeatEvery), cfg.FailureAlpha)
			if err != nil {
				return nil, fmt.Errorf("simnet: failure detector for clique %v: %w", c.Members(), err)
			}
			det.Instrument(net.tracer, ci, c.Root())
			d.det[ci] = det
		}
	}
	return d, nil
}

// reportRate is the clique's per-epoch report probability over the
// training rows — the m_C the failure detector needs (§6). Heartbeats
// guarantee a report at least every hb epochs, so they floor the rate; the
// result is clamped away from {0,1} to keep the detector's
// log-probabilities finite.
func reportRate(c *core.Clique, train [][]float64, hb int) float64 {
	rate := c.ReportRate(train)
	if hb > 0 {
		if floor := 1 / float64(hb); rate < floor {
			rate = floor
		}
	}
	return math.Min(0.98, math.Max(0.02, rate))
}

// Name implements Program.
func (d *DistributedKen) Name() string { return "ken" }

// Epoch implements Program.
func (d *DistributedKen) Epoch(truth []float64) (EpochResult, error) {
	if len(truth) != d.n {
		return EpochResult{}, fmt.Errorf("simnet: truth dim %d, want %d", len(truth), d.n)
	}
	sp := d.net.BeginEpoch()
	step := int64(d.net.stats.Epochs)
	heartbeat := d.hb.Tick()
	if heartbeat && sp.Active() {
		sp.Emit(obs.Event{Type: obs.EvResync, Step: step, Clique: -1, Node: -1})
	}
	res := EpochResult{Estimates: make([]float64, d.n)}
	if d.cfg.FailureAlpha > 0 {
		res.Stale = make([]bool, d.n)
	}
	reportBytes := 0
	for ci := range d.cl {
		c := &d.cl[ci]
		root := c.Root()
		// Phase 1 — intra-source collection: each live member ships its
		// reading to the clique root (the root's own reading is local).
		// Members cannot know whether the root is still alive, so they
		// transmit regardless, burning Tx energy; the message dies at a
		// dead receiver, and a dead root knows nothing.
		rootAlive := d.net.Alive(root)
		c.Gather(truth)
		for i, g := range c.Members() {
			ok := rootAlive
			if g != root {
				ok = d.net.SendReliable(Message{From: g, To: root, Attrs: []int{g}, Values: []float64{truth[g]}}, sp) && rootAlive
			}
			c.SetAvailable(i, ok)
		}

		// Phase 2 — inference at the root and minimal reporting over what
		// it collected; a heartbeat ships all of it, a full resync of the
		// sink replica (§6). Both replicas advance even when the root is
		// dead: the sink keeps predicting from the model (that is the
		// point of Ken). The source believes what it transmitted (it
		// cannot observe loss); the sink conditions on what arrived.
		c.Step(sp.Active())
		if err := c.Choose(heartbeat); err != nil {
			return EpochResult{}, err
		}
		// The report is a child span of the epoch; its unicasts (and any
		// loss along the way) trace as grandchildren, so the auditor can
		// tell a silent divergence from an explained one.
		reportBytes += obs.WireBytesPerValue * c.Sent.Len()
		rs := c.TraceReport(nil, sp, step, ci)
		c.Got.Reset()
		for k, i := range c.Sent.Slots {
			g, v := c.Members()[i], c.Sent.Values[k]
			if d.net.SendReliable(Message{From: root, To: d.net.Base(), Attrs: []int{g}, Values: []float64{v}}, rs) {
				c.Got.Add(i, v)
			}
		}
		if err := c.Condition(&c.Got); err != nil {
			return EpochResult{}, err
		}
		res.ValuesDelivered += c.Got.Len()
		c.TraceApply(nil, rs, step, ci, d.net.Base(), &c.Got)

		// Phase 3 — the base answers from the sink replica. The per-clique
		// failure detector watches report arrivals: a suspected clique's
		// estimates are still served (the model is all the base has) but
		// flagged stale instead of being passed off as live data.
		suspected := false
		if det := d.det[ci]; det != nil {
			suspected = det.Observe(c.Got.Len() > 0)
			if suspected {
				res.SuspectedCliques++
			}
		}
		c.Answer(res.Estimates)
		for _, g := range c.Members() {
			if suspected {
				res.Stale[g] = true
			}
			if diff := res.Estimates[g] - truth[g]; diff > d.eps[g] || diff < -d.eps[g] {
				res.Violations++
			}
		}
	}
	if sp.Active() {
		sp.EndEpoch(obs.Event{
			Step: step, Clique: -1, Node: -1, N: res.ValuesDelivered,
			Payload: &obs.Payload{
				Predicted: res.Estimates, Observed: truth, Eps: d.eps,
				Bytes:     reportBytes,
				LinkBytes: d.net.EpochLinkBytes(),
				Retx:      d.net.EpochRetransmits(),
			},
		})
	}
	return res, nil
}

// DistributedTinyDB is the exact-collection node program: every live node
// unicasts its reading to the base each epoch.
type DistributedTinyDB struct {
	net  *Network
	n    int
	eps  []float64
	last []float64 // base's last delivered value per node
	seen []bool
}

var _ Program = (*DistributedTinyDB)(nil)

// NewDistributedTinyDB installs the TinyDB-style program.
func NewDistributedTinyDB(net *Network, eps []float64) (*DistributedTinyDB, error) {
	if net == nil {
		return nil, fmt.Errorf("simnet: nil network")
	}
	n := net.top.N()
	if len(eps) != n {
		return nil, fmt.Errorf("simnet: eps dim %d, want %d", len(eps), n)
	}
	return &DistributedTinyDB{
		net:  net,
		n:    n,
		eps:  append([]float64(nil), eps...),
		last: make([]float64, n),
		seen: make([]bool, n),
	}, nil
}

// Name implements Program.
func (d *DistributedTinyDB) Name() string { return "tinydb" }

// Epoch implements Program.
func (d *DistributedTinyDB) Epoch(truth []float64) (EpochResult, error) {
	if len(truth) != d.n {
		return EpochResult{}, fmt.Errorf("simnet: truth dim %d, want %d", len(truth), d.n)
	}
	sp := d.net.BeginEpoch()
	res := EpochResult{Estimates: make([]float64, d.n)}
	for i := 0; i < d.n; i++ {
		if d.net.Alive(i) &&
			d.net.SendSpan(Message{From: i, To: d.net.Base(), Attrs: []int{i}, Values: []float64{truth[i]}}, sp) {
			d.last[i] = truth[i]
			d.seen[i] = true
			res.ValuesDelivered++
		}
		res.Estimates[i] = d.last[i]
		if !d.seen[i] {
			res.Violations++
			continue
		}
		if diff := d.last[i] - truth[i]; diff > d.eps[i] || diff < -d.eps[i] {
			res.Violations++
		}
	}
	if sp.Active() {
		sp.EndEpoch(obs.Event{
			Step: int64(d.net.stats.Epochs), Clique: -1, Node: -1, N: res.ValuesDelivered,
			Payload: &obs.Payload{
				Predicted: res.Estimates, Observed: truth, Eps: d.eps,
				LinkBytes: d.net.EpochLinkBytes(), Retx: d.net.EpochRetransmits(),
			},
		})
	}
	return res, nil
}

// RunLifetime drives a program over the trace rows until the network's
// first node dies or the rows run out, then returns (epochs survived by
// the full network, total epochs executed). Use fresh Network/Program
// pairs per run.
func RunLifetime(net *Network, prog Program, rows [][]float64) (firstDeath, epochs int, err error) {
	firstDeath = -1
	for t, row := range rows {
		if _, err := prog.Epoch(row); err != nil {
			return 0, 0, err
		}
		epochs++
		if firstDeath < 0 && net.AliveCount() < net.top.N() {
			firstDeath = t + 1
		}
	}
	return firstDeath, epochs, nil
}
