package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ken/internal/deploy"
	"ken/internal/stream"
	"ken/internal/wire"
)

// streamDriver runs a deployment's readings window through the framed
// protocol path in one goroutine: Source.Collect → wire.Encode →
// wire.DecodeInto → Replica.ApplyObserved, with fresh endpoints per pass.
type streamDriver struct {
	dep    *deploy.Deployment
	window [][]float64
}

// streamPass is what one pass produced and took.
type streamPass struct {
	busy       time.Duration // summed Collect-call → ApplyObserved-return time
	frames     int
	values     int
	heartbeats int
	bytes      int
	violations int // answers off truth by more than ε (checked passes only)
	digest     digest
	final      digest // the replica's final answer, bit for bit
}

func (s *streamDriver) endpoints() (*stream.Source, *stream.Replica, error) {
	src, err := stream.NewSource(s.dep.Config)
	if err != nil {
		return nil, nil, err
	}
	rep, err := stream.NewReplica(s.dep.Config)
	if err != nil {
		return nil, nil, err
	}
	return src, rep, nil
}

// pass streams the window once through fresh endpoints, built before the
// runtime counters are read. lat receives each frame's Collect-call →
// ApplyObserved-return latency in microseconds; tr, when non-nil, records
// the stream and wire spans. With check set, every frame's answer is
// compared against the readings (outside the timed interval), which
// allocates.
func (s *streamDriver) pass(tr *tracer, lat *samples, rt *rtDelta, check bool) (streamPass, error) {
	src, rep, err := s.endpoints()
	if err != nil {
		return streamPass{}, err
	}
	before := readRuntime()
	defer func() { rt.add(before, readRuntime()) }()
	res := src.Resolution()
	eps := s.dep.Config.Eps
	out := streamPass{digest: newDigest()}
	var dec wire.Frame
	var st stream.ApplyStats
	for i, row := range s.window {
		tr.open("stream.frame", int64(i))
		start := time.Now()

		tr.open("stream.collect", int64(i))
		f, err := src.Collect(row)
		d := tr.close()
		if err != nil {
			return out, fmt.Errorf("collect frame %d: %w", i, err)
		}
		if f.Special == wire.KindHeartbeat {
			tr.observe("stream.collect_heartbeat", d)
		}

		tr.open("wire.encode", int64(i))
		buf, err := wire.Encode(f, res)
		tr.close()
		if err != nil {
			return out, fmt.Errorf("encode frame %d: %w", i, err)
		}

		tr.open("wire.decode", int64(i))
		err = wire.DecodeInto(&dec, buf, res)
		tr.close()
		if err != nil {
			return out, fmt.Errorf("decode frame %d: %w", i, err)
		}

		tr.open("stream.apply", int64(i))
		err = rep.ApplyObserved(dec, &st)
		tr.close()
		if err != nil {
			return out, fmt.Errorf("apply frame %d: %w", i, err)
		}
		busy := time.Since(start)
		tr.close()

		out.busy += busy
		lat.add(float64(busy.Nanoseconds()) / 1e3)
		out.frames++
		out.values += len(f.Attrs)
		out.bytes += len(buf)
		if st.Heartbeat {
			out.heartbeats++
		}
		frameDigest(&out.digest, dec)
		if check {
			out.violations += offBy(rep.Estimates(), row, eps)
		}
	}
	out.final = answerDigest(rep.Estimates())
	return out, nil
}

// layerAllocs counts the allocations of Collect and ApplyObserved alone
// over one pass that hands frames straight to the replica, bypassing the
// wire codec.
func (s *streamDriver) layerAllocs() (float64, error) {
	src, rep, err := s.endpoints()
	if err != nil {
		return 0, err
	}
	var st stream.ApplyStats
	before := readRuntime()
	for i, row := range s.window {
		f, err := src.Collect(row)
		if err != nil {
			return 0, fmt.Errorf("collect frame %d: %w", i, err)
		}
		if err := rep.ApplyObserved(f, &st); err != nil {
			return 0, fmt.Errorf("apply frame %d: %w", i, err)
		}
	}
	after := readRuntime()
	return float64(after.mallocs-before.mallocs) / float64(len(s.window)), nil
}

// frameDigest folds one frame's report set into d, in attribute order
// (Collect emits a frame's attributes in no fixed order; the codec sorts
// them).
func frameDigest(d *digest, f wire.Frame) {
	d.word(f.Step)
	d.word(uint64(f.Special))
	if !sort.IntsAreSorted(f.Attrs) {
		f = wire.Frame{Attrs: append([]int(nil), f.Attrs...), Values: append([]float64(nil), f.Values...)}
		sort.Sort(byAttr(f))
	}
	for i, a := range f.Attrs {
		d.word(uint64(a))
		d.word(math.Float64bits(f.Values[i]))
	}
}

// byAttr sorts a frame's attribute/value pairs by attribute.
type byAttr wire.Frame

func (b byAttr) Len() int           { return len(b.Attrs) }
func (b byAttr) Less(i, j int) bool { return b.Attrs[i] < b.Attrs[j] }
func (b byAttr) Swap(i, j int) {
	b.Attrs[i], b.Attrs[j] = b.Attrs[j], b.Attrs[i]
	b.Values[i], b.Values[j] = b.Values[j], b.Values[i]
}

func answerDigest(est []float64) digest {
	d := newDigest()
	for _, v := range est {
		d.word(math.Float64bits(v))
	}
	return d
}

// offBy counts the answers that miss the readings by more than ε, with
// the same 1e-9 slack core.Run's audit allows.
func offBy(est, truth, eps []float64) int {
	n := 0
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > eps[i]+1e-9 {
			n++
		}
	}
	return n
}
