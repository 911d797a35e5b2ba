package core

import (
	"fmt"
	"math/rand"
	"time"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
)

// ProbConfig enables probabilistic reporting (§6 "Probabilistic
// Reporting"): the hard ε step function is relaxed so that small violations
// are only reported with a probability that grows with the violation ratio,
// p = 1 − exp(−Steepness·(ratio − 1)) for ratio = |error|/ε > 1. This
// trades the deterministic guarantee for further communication savings —
// gross violations are still reported almost surely, so errors stay
// stochastically bounded. Run's audit then counts bound violations instead
// of forbidding them.
type ProbConfig struct {
	// Steepness controls how fast the report probability rises past the
	// bound. Large values approach the deterministic step function.
	Steepness float64
	// Seed drives the reporting coin flips.
	Seed int64
}

// KenConfig assembles a Ken Disjoint-Cliques collection scheme.
type KenConfig struct {
	// Name labels the scheme in results; empty derives "DjCk" from the
	// partition's maximum clique size.
	Name string
	// Partition assigns attributes to cliques with chosen roots (the M
	// estimates inside are not used at runtime — real reports are counted).
	Partition *cliques.Partition
	// Train is the full training matrix used to fit one model per clique.
	Train [][]float64
	// Eps are the per-attribute error bounds.
	Eps []float64
	// FitCfg controls per-clique model learning (used by the default
	// LinearGaussian factory).
	FitCfg model.FitConfig
	// ModelFactory, when non-nil, builds each clique's model from its
	// training columns instead of the default FitLinearGaussian — the hook
	// that runs richer model families (model.Switching, model.Adaptive)
	// inside the Disjoint-Cliques engine. The returned model must satisfy
	// the replicated determinism contract: clones stepped and conditioned
	// identically stay identical.
	ModelFactory func(train [][]float64) (model.Model, error)
	// Topology prices messages; nil gives topology-independent accounting
	// (zero intra cost, one unit per reported value).
	Topology *network.Topology
	// Exhaustive switches the minimal-report search from the greedy
	// heuristic to exact subset enumeration (ablation).
	Exhaustive bool
	// Prob, when non-nil, enables probabilistic reporting.
	Prob *ProbConfig
	// Obs, when non-nil, attaches metrics and protocol event tracing.
	// With a nil observer the instrumented step path costs nothing beyond
	// nil checks (see package obs).
	Obs *obs.Observer
}

// Ken is the paper's architecture: replicated dynamic probabilistic models
// per clique, with the source transmitting minimal value subsets on
// prediction misses (§3.2). Both replicas of every clique run in this
// process, over a lossless link unless LossyKen drives it.
type Ken struct {
	name    string
	n       int
	part    *cliques.Partition
	cliques []Clique
	intra   []float64 // per-clique per-step collection cost at the root
	top     *network.Topology
	policy  policy
	estBuf  []float64 // Step's returned estimate vector, reused across epochs

	// Observability handles, resolved once in NewKen; all nil (and
	// therefore no-ops) when KenConfig.Obs is unset.
	tracer       *obs.Tracer
	span         *obs.Span // current epoch span, set by Run via BeginEpoch
	stepN        int64
	mValues      *obs.Counter // ken_values_reported_total
	mSuppressed  *obs.Counter // ken_values_suppressed_total
	mReportMsgs  *obs.Counter // ken_report_messages_total
	mStepSeconds *obs.Timer   // ken_step_seconds
	mHeartbeats  *obs.Counter // ken_heartbeats_total (lossy wrapper)
	mLostReports *obs.Counter // ken_lost_reports_total (lossy wrapper)
	stepObserved bool         // true when mStepSeconds is live
}

var _ Scheme = (*Ken)(nil)

// NewKen fits per-clique models on the training data and wires up the
// replicated source/sink pairs.
func NewKen(cfg KenConfig) (*Ken, error) {
	n := len(cfg.Eps)
	if cfg.Topology != nil && cfg.Topology.N() != n {
		return nil, fmt.Errorf("core: topology has %d nodes, data has %d", cfg.Topology.N(), n)
	}
	if cfg.Prob != nil && cfg.Prob.Steepness <= 0 {
		return nil, fmt.Errorf("core: probabilistic reporting needs positive steepness, got %v", cfg.Prob.Steepness)
	}
	cl, err := FitCliques(cfg.Partition, cfg.Train, cfg.Eps, cfg.FitCfg, cfg.ModelFactory, BothSides)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("DjC%d", cfg.Partition.MaxCliqueSize())
	}
	reg := cfg.Obs.Registry()
	k := &Ken{
		name:    name,
		n:       n,
		part:    cfg.Partition,
		cliques: cl,
		intra:   make([]float64, len(cl)),
		top:     cfg.Topology,
		policy: policy{
			exhaustive: cfg.Exhaustive,
			prob:       cfg.Prob,
			mFlips:     reg.Counter("ken_prob_flips_total"),
			mSuppress:  reg.Counter("ken_prob_suppressed_total"),
		},
		estBuf:       make([]float64, n),
		tracer:       cfg.Obs.Tracer(),
		mValues:      reg.Counter("ken_values_reported_total"),
		mSuppressed:  reg.Counter("ken_values_suppressed_total"),
		mReportMsgs:  reg.Counter("ken_report_messages_total"),
		mHeartbeats:  reg.Counter("ken_heartbeats_total"),
		mLostReports: reg.Counter("ken_lost_reports_total"),
		mStepSeconds: reg.Timer("ken_step_seconds"),
		stepObserved: reg != nil,
	}
	if cfg.Prob != nil {
		k.policy.rng = rand.New(rand.NewSource(cfg.Prob.Seed))
	}
	if cfg.Topology != nil {
		for ci := range cl {
			for _, g := range cl[ci].members {
				k.intra[ci] += cfg.Topology.Comm(g, cl[ci].root)
			}
		}
	}
	return k, nil
}

// Name implements Scheme.
func (k *Ken) Name() string { return k.name }

// Dim implements Scheme.
func (k *Ken) Dim() int { return k.n }

// Partition returns the Disjoint-Cliques partition the scheme runs on
// (read-only; useful for reporting which cliques Build selected).
func (k *Ken) Partition() *cliques.Partition { return k.part }

// BeginEpoch implements EpochScoped: report/suppress/apply events of the
// next Step nest under the replay driver's epoch span.
func (k *Ken) BeginEpoch(sp *obs.Span) { k.span = sp }

// Step implements Scheme: for every clique, advance both replicas, let the
// source choose the minimal report set, deliver it, and read the sink's
// answer (§3.2). On models implementing model.IncrementalConditioner
// (LinearGaussian does), the greedy report search runs against the model's
// cached incremental conditioning evaluator — O(m²) per search round via a
// growing Cholesky factor instead of a from-scratch refactorization — with
// transparent fallback to the reference MeanGiven path when the cache goes
// stale or a pivot degenerates. The evaluator is source-side and read-only,
// so sink replicas transition identically whether or not it engages.
//
// The returned estimate slice is reused across calls — callers that retain
// it past the next Step must copy (Run does). A fully-suppressed epoch on
// MeanWriter models with tracing off runs allocation-free; see
// TestAllocBudgetKenReplay.
func (k *Ken) Step(truth []float64) ([]float64, StepStats, error) { return k.step(truth, nil) }

// step runs one epoch of the clique kernel over every clique. l, when
// non-nil, is the lossy link of LossyKen: it schedules heartbeats and
// drops report values on their way to the sink.
//
//ken:hotpath the per-epoch replay loop; suppressed epochs allocate nothing
func (k *Ken) step(truth []float64, l *LossyKen) ([]float64, StepStats, error) {
	if len(truth) != k.n {
		return nil, StepStats{}, fmt.Errorf("core: truth dim %d, want %d", len(truth), k.n)
	}
	var start time.Time
	if k.stepObserved {
		start = time.Now()
	}
	heartbeat := l != nil && l.tick()
	var st StepStats
	for ci := range k.cliques {
		c := &k.cliques[ci]
		c.Gather(truth)
		c.Step(k.tracer != nil)
		if err := c.choose(&k.policy, heartbeat); err != nil {
			return nil, StepStats{}, err
		}
		got := &c.Sent
		if l != nil {
			got = l.transmit(c, heartbeat)
		}
		if err := c.Condition(got); err != nil {
			return nil, StepStats{}, err
		}

		n := c.Sent.Len()
		st.ValuesReported += n
		for _, i := range c.Sent.Slots {
			//lint:ignore hotalloc report epochs accumulate the reported-attribute list; suppressed epochs never enter this loop
			st.Reported = append(st.Reported, c.members[i])
		}
		st.IntraCost += k.intra[ci]
		st.Bytes += obs.WireBytesPerValue * n
		if k.top == nil {
			st.SinkCost += float64(n)
		} else {
			st.SinkCost += float64(n) * k.top.CommToBase(c.root)
		}
		//lint:ignore hotalloc counter increments are allocation-free; the allocating trace branch inside is guarded by tracer == nil
		rs := k.observeClique(ci, c, got)
		if l != nil {
			//lint:ignore hotalloc the drop event is built only when tracing and a value was lost
			l.traceDrops(rs, ci, c)
		}
		c.Answer(k.estBuf)
	}
	k.stepN++
	if k.stepObserved {
		k.mStepSeconds.Observe(time.Since(start))
	}
	return k.estBuf, st, nil
}

// observeClique feeds one clique's report decision into the metrics and
// tracer. Counter handles are nil-safe; the trace branch, which allocates
// the attr and payload slices, is guarded so the unobserved path allocates
// nothing. delivered is the part of the report that reached the sink
// (Sent itself in the lossless scheme, possibly less under the lossy
// wrapper). When a replay epoch span is active the report becomes a child
// span and the sink apply its grandchild, giving the auditor the report →
// apply causal chain; otherwise events are emitted unspanned. The report
// span (nil when no report went out or no epoch span is active) is
// returned so callers can parent loss events to it.
func (k *Ken) observeClique(ci int, c *Clique, delivered *Report) *obs.Span {
	n := c.Sent.Len()
	k.mValues.Add(int64(n))
	k.mSuppressed.Add(int64(len(c.members) - n))
	if n > 0 {
		k.mReportMsgs.Inc()
	}
	if k.tracer == nil {
		return nil
	}
	rs := c.TraceReport(k.tracer, k.span, k.stepN, ci)
	if n < len(c.members) {
		supp := make([]int, 0, len(c.members)-n)
		next := 0
		for i, g := range c.members {
			if next < n && c.Sent.Slots[next] == i {
				next++
				continue
			}
			supp = append(supp, g)
		}
		k.emit(k.span, obs.Event{
			Type: obs.EvSuppress, Step: k.stepN, Clique: ci, Node: c.root,
			Attrs: supp,
		})
	}
	c.TraceApply(k.tracer, rs, k.stepN, ci, -1, delivered)
	return rs
}

// emit sends ev under span sp when it is active, else unspanned.
func (k *Ken) emit(sp *obs.Span, ev obs.Event) {
	if sp.Active() {
		sp.Emit(ev)
	} else {
		k.tracer.Emit(ev)
	}
}
