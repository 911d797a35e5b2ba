package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// maxSamples caps one sample set. Beyond it the set keeps a uniform
// reservoir (seeded, so a run stays reproducible), which bounds memory on
// the per-call model spans of a long traced replay.
const maxSamples = 1 << 18

// samples is a set of measured durations (or other values) kept exactly,
// so the percentiles printed carry every digit as measured.
type samples struct {
	v   []float64
	n   int // values offered, including those the reservoir skipped
	sum float64
	rng *rand.Rand
}

func (s *samples) add(x float64) {
	s.n++
	s.sum += x
	if len(s.v) < maxSamples {
		s.v = append(s.v, x)
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	if j := s.rng.Intn(s.n); j < maxSamples {
		s.v[j] = x
	}
}

// reset empties the set, keeping room for n values.
func (s *samples) reset(n int) {
	if cap(s.v) < n {
		s.v = make([]float64, 0, n)
	}
	*s = samples{v: s.v[:0]}
}

// quantile returns the nearest-rank q-quantile, or 0 for an empty set.
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	c := append([]float64(nil), s.v...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func median(xs []float64) float64 {
	s := samples{v: xs}
	return s.quantile(0.5)
}

// spanRec is one finished span: name, start and end in nanoseconds since
// the tracer started, the index of its parent span (-1 for a root) and the
// epoch or frame it belongs to.
type spanRec struct {
	name       string
	start, end int64
	parent     int32
	id         int64
}

// maxSpans bounds the span records a run keeps for the span file; the
// per-name duration samples keep accumulating past it.
const maxSpans = 20_000

type openSpan struct {
	name  string
	start time.Duration // since the tracer started
	rec   int32
}

// tracer records spans in memory for one goroutine. A nil *tracer is off:
// every method is a no-op, so drivers call it unconditionally.
type tracer struct {
	t0      time.Time
	spans   []spanRec
	stack   []openSpan
	dur     map[string]*samples // per span name, microseconds
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), dur: map[string]*samples{}}
}

// child returns a tracer for another goroutine, to be merged back into t
// once that goroutine has ended (nil when t is off).
func (t *tracer) child() *tracer {
	if t == nil {
		return nil
	}
	return newTracer()
}

// open starts a span nested under the innermost open one.
func (t *tracer) open(name string, id int64) {
	if t == nil {
		return
	}
	rec := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{name: name, parent: parent, id: id})
	} else {
		t.dropped++
	}
	// time.Since reads only the monotonic clock, half the cost of time.Now.
	t.stack = append(t.stack, openSpan{name: name, start: time.Since(t.t0), rec: rec})
}

// close ends the innermost open span and returns its duration.
func (t *tracer) close() time.Duration {
	if t == nil {
		return 0
	}
	end := time.Since(t.t0)
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - top.start
	if top.rec >= 0 {
		r := &t.spans[top.rec]
		r.start, r.end = int64(top.start), int64(end)
	}
	t.observe(top.name, d)
	return d
}

// observe adds a duration measured outside open/close to name's samples.
func (t *tracer) observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	s := t.dur[name]
	if s == nil {
		s = &samples{}
		t.dur[name] = s
	}
	s.add(float64(d.Nanoseconds()) / 1e3)
}

// merge folds another goroutine's tracer into t after that goroutine ended.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	for name, s := range o.dur {
		for _, x := range s.v {
			t.observe(name, time.Duration(x*1e3))
		}
	}
	shift := int64(o.t0.Sub(t.t0))
	base := int32(len(t.spans))
	for _, r := range o.spans {
		if len(t.spans) >= maxSpans {
			t.dropped++
			continue
		}
		if r.parent >= 0 {
			r.parent += base
		}
		r.start += shift
		r.end += shift
		t.spans = append(t.spans, r)
	}
	t.dropped += o.dropped
}

// p returns name's q-quantile in microseconds (0 when the layer never ran).
func (t *tracer) p(name string, q float64) float64 {
	if s := t.dur[name]; s != nil {
		return s.quantile(q)
	}
	return 0
}

// total returns the summed duration of name's spans in microseconds.
func (t *tracer) total(name string) float64 {
	if s := t.dur[name]; s != nil {
		return s.sum
	}
	return 0
}

func (t *tracer) calls(name string) int {
	if s := t.dur[name]; s != nil {
		return s.n
	}
	return 0
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, r := range t.spans {
		if err := enc.Encode(struct {
			I      int    `json:"i"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			ID     int64  `json:"id"`
		}{i, r.name, r.start, r.end, r.parent, r.id}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// rtSnap is a snapshot of the Go runtime counters the benchmark reports.
type rtSnap struct {
	mallocs  uint64
	numGC    uint32
	gcCPU    float64 // cumulative GC CPU seconds
	totalCPU float64 // cumulative available CPU seconds
}

var rtMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtMetrics)
	s := rtSnap{mallocs: ms.Mallocs, numGC: ms.NumGC}
	if rtMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rtMetrics[0].Value.Float64()
	}
	if rtMetrics[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = rtMetrics[1].Value.Float64()
	}
	return s
}

// rtDelta accumulates runtime counter deltas over the timed passes only.
type rtDelta struct {
	mallocs  uint64
	gcs      uint32
	gcCPU    float64
	totalCPU float64
}

func (d *rtDelta) add(a, b rtSnap) {
	if d == nil {
		return
	}
	d.mallocs += b.mallocs - a.mallocs
	d.gcs += b.numGC - a.numGC
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
}

// liveHeapMiB forces a collection and returns the heap still in use.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// host is the fingerprint printed with every result.
type host struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	h := host{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// digest is FNV-64a over the words fed to it; report-set digests use it.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(x uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	*d = digest(h)
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }
