// Package stream runs the Ken protocol between two real processes: a
// Source colocated with the sensor network and a sink Replica at the base
// station, exchanging compact wire frames over any io.Reader/io.Writer —
// in production a TCP connection, in tests a net.Pipe.
//
// This realises the paper's §6 observation that the replicated-model
// approach extends naturally to approximate caching and distributed
// streams: the sink answers continuously from its replica, and the source
// ships only the minimal frames needed to keep every answer within ε.
//
// Values travel quantized (wire.Frame); the Source conditions its own
// replica on the quantized values it sends, so both replicas stay in
// bit-exact lock-step, and it runs the protocol at ε − resolution/2 so the
// end-to-end guarantee remains ±ε.
//
// The source's greedy report search runs through the model's cached
// incremental conditioning evaluator when available (see
// model.IncrementalConditioner). The evaluator is read-only and exists
// only on the source side of the search; both replicas still mutate
// exclusively through Step and Condition on identical inputs, so the
// bit-exact lock-step invariant is untouched — TestStreamLockStepScratch
// pins this against a model with the evaluator hidden.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/wire"
)

// maxFrameBytes bounds a length-prefixed frame read (corruption guard).
const maxFrameBytes = 1 << 20

// Config assembles both endpoints; the two sides must be built with
// identical configurations (same training data, partition, bounds and
// resolution).
type Config struct {
	// Partition assigns attributes to cliques.
	Partition *cliques.Partition
	// Train is the shared training matrix.
	Train [][]float64
	// Eps are the per-attribute end-to-end error bounds.
	Eps []float64
	// FitCfg controls model learning.
	FitCfg model.FitConfig
	// Resolution is the wire quantisation step (default: min ε / 100).
	Resolution float64
	// HeartbeatEvery, when positive, makes the source transmit a
	// full-value heartbeat frame every so many steps (§6 robustness).
	HeartbeatEvery int
}

// build validates the config and fits the given side of every clique's
// replicated model once, on the effective bounds ε − resolution/2.
func build(cfg Config, side core.Sides) ([]core.Clique, float64, error) {
	res := cfg.Resolution
	minEps := math.Inf(1)
	for i, e := range cfg.Eps {
		if e <= 0 {
			return nil, 0, fmt.Errorf("stream: non-positive epsilon %v for attribute %d", e, i)
		}
		minEps = math.Min(minEps, e)
	}
	if res <= 0 {
		res = minEps / 100
	}
	if res/2 >= minEps {
		return nil, 0, fmt.Errorf("stream: resolution %v too coarse for ε %v", res, minEps)
	}
	eff := make([]float64, len(cfg.Eps))
	for g, e := range cfg.Eps {
		eff[g] = e - res/2
	}
	cl, err := core.FitCliques(cfg.Partition, cfg.Train, eff, cfg.FitCfg, nil, side)
	return cl, res, err
}

// Source is the sensor-network endpoint: it consumes ground-truth rows and
// emits wire frames. It runs the source replica of every clique.
type Source struct {
	cl   []core.Clique
	res  float64
	n    int
	step uint64
	hb   core.Heartbeat

	// Observability handles (nil and no-op until Instrument is called).
	tracer      *obs.Tracer
	mFrames     *obs.Counter // stream_frames_sent_total
	mValues     *obs.Counter // stream_values_sent_total
	mHeartbeats *obs.Counter // stream_heartbeats_sent_total
}

// Instrument attaches metrics and heartbeat-resync tracing to the source
// endpoint. A nil observer leaves it unobserved (the default).
func (s *Source) Instrument(ob *obs.Observer) {
	s.tracer = ob.Tracer()
	reg := ob.Registry()
	s.mFrames = reg.Counter("stream_frames_sent_total")
	s.mValues = reg.Counter("stream_values_sent_total")
	s.mHeartbeats = reg.Counter("stream_heartbeats_sent_total")
}

// NewSource builds the source endpoint.
func NewSource(cfg Config) (*Source, error) {
	cl, res, err := build(cfg, core.SourceSide)
	if err != nil {
		return nil, err
	}
	return &Source{cl: cl, res: res, n: len(cfg.Eps), hb: core.NewHeartbeat(cfg.HeartbeatEvery)}, nil
}

// Collect advances one sampling step: runs the source protocol on the
// fresh readings and returns the frame to transmit (possibly with zero
// reports — the frame itself carries the step so the sink's clock stays
// aligned even without data). The frame's attributes are ascending.
func (s *Source) Collect(truth []float64) (wire.Frame, error) {
	if len(truth) != s.n {
		return wire.Frame{}, fmt.Errorf("stream: truth dim %d, want %d", len(truth), s.n)
	}
	sp := s.tracer.StartEpoch(obs.Event{Step: int64(s.step), Clique: -1, Node: -1, Detail: "stream"})
	frame := wire.Frame{Step: s.step}
	heartbeat := s.hb.Tick()
	if heartbeat {
		frame.Special = wire.KindHeartbeat
	}
	for ci := range s.cl {
		c := &s.cl[ci]
		c.Gather(truth)
		c.Step(false)
		if err := c.Choose(heartbeat); err != nil {
			return wire.Frame{}, err
		}
		if c.Sent.Len() == 0 {
			continue
		}
		// Quantize, transmit, and condition on exactly what was sent.
		c.Quantize(s.res)
		if err := c.Condition(&c.Sent); err != nil {
			return wire.Frame{}, err
		}
		for k, i := range c.Sent.Slots {
			frame.Attrs = append(frame.Attrs, c.Members()[i])
			frame.Values = append(frame.Values, c.Sent.Values[k])
		}
	}
	sortByAttr(&frame)
	s.mFrames.Inc()
	s.mValues.Add(int64(len(frame.Attrs)))
	if sp.Active() {
		if len(frame.Attrs) > 0 {
			sp.Child().Emit(obs.Event{
				Type: obs.EvReport, Step: int64(s.step), Clique: -1, Node: -1,
				Attrs: frame.Attrs, Values: frame.Values,
				Payload: &obs.Payload{
					Observed: frame.Values, Chunk: int(s.step),
					Bytes: obs.WireBytesPerValue * len(frame.Attrs),
				},
			})
		}
		if heartbeat {
			sp.Emit(obs.Event{Type: obs.EvResync, Step: int64(s.step), Clique: -1, Node: -1})
		}
		sp.EndEpoch(obs.Event{Step: int64(s.step), Clique: -1, Node: -1, N: len(frame.Attrs),
			Payload: &obs.Payload{Bytes: obs.WireBytesPerValue * len(frame.Attrs)}})
	}
	if heartbeat {
		s.mHeartbeats.Inc()
	}
	s.step++
	return frame, nil
}

// sortByAttr orders a frame's attribute/value pairs by attribute. Each
// clique contributes an ascending run, so the insertion sort does little
// work.
func sortByAttr(f *wire.Frame) {
	for i := 1; i < len(f.Attrs); i++ {
		for j := i; j > 0 && f.Attrs[j] < f.Attrs[j-1]; j-- {
			f.Attrs[j], f.Attrs[j-1] = f.Attrs[j-1], f.Attrs[j]
			f.Values[j], f.Values[j-1] = f.Values[j-1], f.Values[j]
		}
	}
}

// Resolution returns the negotiated wire resolution.
func (s *Source) Resolution() float64 { return s.res }

// Replica is the base-station endpoint: it applies frames and serves
// estimates. It runs the sink replica of every clique. Safe for concurrent
// Apply/Estimates.
type Replica struct {
	mu   sync.Mutex
	cl   []core.Clique
	at   []slotRef // attribute → its clique and slot, from the partition
	res  float64
	n    int
	eps  []float64 // end-to-end per-attribute bounds (from the config)
	next uint64    // expected next frame step
	// Frames counts applied frames; Heartbeats counts heartbeat frames.
	frames, heartbeats int

	// Observability handles (nil and no-op until Instrument is called).
	tracer      *obs.Tracer
	mFrames     *obs.Counter // stream_frames_applied_total
	mValues     *obs.Counter // stream_values_applied_total
	mHeartbeats *obs.Counter // stream_heartbeats_applied_total
	gStep       *obs.Gauge   // stream_replica_step
}

// slotRef locates an attribute in the partition.
type slotRef struct{ clique, slot int }

// Instrument attaches metrics and sink-apply tracing to the sink endpoint.
// A nil observer leaves it unobserved (the default).
func (r *Replica) Instrument(ob *obs.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = ob.Tracer()
	reg := ob.Registry()
	r.mFrames = reg.Counter("stream_frames_applied_total")
	r.mValues = reg.Counter("stream_values_applied_total")
	r.mHeartbeats = reg.Counter("stream_heartbeats_applied_total")
	r.gStep = reg.Gauge("stream_replica_step")
}

// NewReplica builds the sink endpoint.
func NewReplica(cfg Config) (*Replica, error) {
	cl, res, err := build(cfg, core.SinkSide)
	if err != nil {
		return nil, err
	}
	at := make([]slotRef, len(cfg.Eps))
	for ci := range cl {
		for i, g := range cl[ci].Members() {
			at[g] = slotRef{ci, i}
		}
	}
	return &Replica{cl: cl, at: at, res: res, n: len(cfg.Eps),
		eps: append([]float64(nil), cfg.Eps...)}, nil
}

// Resolution returns the negotiated wire resolution.
func (r *Replica) Resolution() float64 { return r.res }

// ApplyStats reports what one frame did to the replica, measured against
// the pre-apply predictions — the raw material of the live ε audit
// (internal/slo). A reported value whose prediction was off by more than
// its end-to-end ε is a deviation: expected for report frames (a report
// exists because the source's lock-step prediction missed), suspicious
// for heartbeat values the protocol promises the replica already tracks.
type ApplyStats struct {
	// Step is the applied frame's protocol step.
	Step uint64
	// Values counts the reported values the frame carried.
	Values int
	// Heartbeat marks a full-value heartbeat frame.
	Heartbeat bool
	// Deviations counts reported values whose pre-apply prediction
	// missed the attribute's end-to-end ε.
	Deviations int
	// MaxDevEps is the largest |prediction − value| / ε over the frame's
	// reported values (0 when none, or when ε is unbounded).
	MaxDevEps float64
}

// Apply folds one frame into the replica. Frames must arrive in step
// order; a gap means lost frames and is an error (the transport below is
// reliable — for lossy transports see core.LossyKen and simnet).
//
// The frame is not retained: its slices are read synchronously (the trace
// event, too, is marshalled before Emit returns), so callers may reuse the
// frame's backing arrays for the next read (Serve does, via
// wire.DecodeInto). Steady-state empty frames apply without allocating.
//
//ken:hotpath the sink's per-frame apply loop
func (r *Replica) Apply(f wire.Frame) error {
	return r.ApplyObserved(f, nil)
}

// ApplyObserved is Apply plus pre-apply deviation measurement into st
// (skipped when st is nil). The measurement reads each clique's predicted
// mean for the step before the frame's values are conditioned in, so it
// sees exactly what the replica would have answered had the frame never
// arrived — the live analogue of kenaudit's ε-bound check. st is fully
// overwritten; the measurement reuses the cliques' mean scratch and
// allocates nothing.
//
//ken:hotpath the sink's per-frame apply loop (measured form)
func (r *Replica) ApplyObserved(f wire.Frame, st *ApplyStats) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st != nil {
		*st = ApplyStats{Step: f.Step, Values: len(f.Attrs), Heartbeat: f.Special == wire.KindHeartbeat}
	}
	if f.Step != r.next {
		return fmt.Errorf("stream: frame for step %d, expected %d", f.Step, r.next)
	}
	for _, a := range f.Attrs {
		if a < 0 || a >= r.n {
			return fmt.Errorf("stream: frame attribute %d out of range %d", a, r.n)
		}
	}
	for ci := range r.cl {
		r.cl[ci].Got.Reset()
	}
	for k, a := range f.Attrs {
		at := r.at[a]
		r.cl[at.clique].Got.Add(at.slot, f.Values[k])
	}
	for ci := range r.cl {
		c := &r.cl[ci]
		c.Step(false)
		if st != nil && c.Got.Len() > 0 {
			mean := c.SinkMean()
			for k, i := range c.Got.Slots {
				eps := r.eps[c.Members()[i]]
				if eps <= 0 {
					continue
				}
				dev := math.Abs(mean[i]-c.Got.Values[k]) / eps
				if dev > 1 {
					st.Deviations++
				}
				if dev > st.MaxDevEps {
					st.MaxDevEps = dev
				}
			}
		}
		if err := c.Condition(&c.Got); err != nil {
			return err
		}
	}
	r.next++
	r.frames++
	r.mFrames.Inc()
	r.mValues.Add(int64(len(f.Attrs)))
	r.gStep.Set(float64(f.Step))
	//lint:ignore hotalloc traced replicas marshal the apply event; the tracer handle is nil (a no-op) everywhere performance matters
	r.tracer.Emit(obs.Event{
		Type: obs.EvApply, Step: int64(f.Step), Clique: -1, Node: -1,
		Attrs: f.Attrs, Values: f.Values, N: len(f.Attrs),
	})
	if f.Special == wire.KindHeartbeat {
		r.heartbeats++
		r.mHeartbeats.Inc()
	}
	return nil
}

// Estimates returns the replica's current answer vector.
func (r *Replica) Estimates() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.estimates()
}

// estimates reads every clique's answer into a fresh vector; r.mu held.
func (r *Replica) estimates() []float64 {
	out := make([]float64, r.n)
	for ci := range r.cl {
		r.cl[ci].Answer(out)
	}
	return out
}

// Answer is a self-consistent snapshot of the replica's live SELECT *
// answer: the estimates and the ±ε contract they were collected under,
// tagged with the number of frames folded in. The slices are copies — the
// caller may keep them across further Apply calls.
type Answer struct {
	// Step counts the frames applied when the snapshot was taken.
	Step int `json:"step"`
	// Estimates is the per-attribute answer vector.
	Estimates []float64 `json:"estimates"`
	// Eps is the per-attribute end-to-end error bound.
	Eps []float64 `json:"eps"`
	// Heartbeats counts heartbeat frames among the applied ones.
	Heartbeats int `json:"heartbeats"`
}

// Answer atomically snapshots the live answer with its bounds — the unit
// a concurrent query API serves while frames keep applying.
func (r *Replica) Answer() Answer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Answer{
		Step:       r.frames,
		Estimates:  r.estimates(),
		Eps:        append([]float64(nil), r.eps...),
		Heartbeats: r.heartbeats,
	}
}

// Steps returns how many frames have been applied.
func (r *Replica) Steps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames
}

// Heartbeats returns how many heartbeat frames arrived.
func (r *Replica) Heartbeats() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heartbeats
}

// writeRaw length-prefixes and writes one encoded frame body.
func writeRaw(w io.Writer, buf []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("stream: write header: %w", err)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("stream: write frame: %w", err)
	}
	return nil
}

// readRaw reads one length-prefixed frame body. io.EOF at a frame boundary
// is returned as io.EOF; a partial frame is an unexpected-EOF error.
func readRaw(rd io.Reader) ([]byte, error) { return readRawInto(rd, nil) }

// readRawInto is readRaw reading into buf's backing array when its
// capacity suffices, allocating a larger one otherwise. The returned slice
// (resized to the frame) replaces buf for the next call.
func readRawInto(rd io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("stream: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameBytes {
		return nil, fmt.Errorf("stream: frame of %d bytes exceeds limit", size)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(rd, buf); err != nil {
		return nil, fmt.Errorf("stream: read frame: %w", err)
	}
	return buf, nil
}

// WriteFrame length-prefixes and writes one encoded frame.
func WriteFrame(w io.Writer, f wire.Frame, res float64) error {
	buf, err := wire.Encode(f, res)
	if err != nil {
		return err
	}
	return writeRaw(w, buf)
}

// ReadFrameBuf reads one length-prefixed frame into a caller-owned
// raw-body buffer: the frame body is read into buf's backing array when
// its capacity suffices, and the (possibly grown) buffer is returned for
// the next call. io.EOF at a frame boundary is returned as io.EOF; a
// partial frame is an unexpected-EOF error. The decoded frame's
// Attrs/Values are freshly allocated, so the frame may be retained or
// queued while buf is reused for further reads.
func ReadFrameBuf(rd io.Reader, res float64, buf []byte) (wire.Frame, []byte, error) {
	body, err := readRawInto(rd, buf)
	if err != nil {
		if err == io.EOF {
			return wire.Frame{}, buf, io.EOF
		}
		return wire.Frame{}, buf, err
	}
	f, err := wire.Decode(body, res)
	if err != nil {
		return wire.Frame{}, body, err
	}
	return f, body, nil
}

// Serve applies frames from the reader until EOF or error. It returns nil
// on clean EOF. The loop owns a persistent frame and body buffer, decoding
// each frame in place (wire.DecodeInto) before the synchronous Apply — so a
// steady-state stream of suppressed (empty) frames serves without
// allocating per frame.
func (r *Replica) Serve(rd io.Reader) error {
	var f wire.Frame
	var body []byte
	for {
		var err error
		body, err = readRawInto(rd, body)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := wire.DecodeInto(&f, body, r.res); err != nil {
			return err
		}
		if err := r.Apply(f); err != nil {
			return err
		}
	}
}
