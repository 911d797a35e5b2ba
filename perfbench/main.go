// Command perfbench is the repository benchmark: it replays seeded
// readings through one of three workloads, checks every answer, and prints
// the end-to-end metrics (or, traced, the per-layer metrics) as one JSON
// object on the last line of standard output. See README.md.
//
//	perfbench --workload lab-replay --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ken/internal/deploy"
	"ken/internal/obs"
)

const (
	// A run builds its deployment and endpoints at least minSetups times
	// and until setupTime has passed (at most maxSetups); setup_s is the
	// median.
	minSetups = 3
	maxSetups = 25
	setupTime = 2 * time.Second
	// Hourly readings after the training prefix, a whole number of days.
	// An in-process pass replays all of them once, starting at the day the
	// seed picks and wrapping around, so every seed does the same work in
	// another order; the daemon session keeps cycling through them.
	labPool    = 6000
	gardenPool = 24000
	// frameRate and queryRate are the open-loop rates of the paced phase
	// of the daemon driver, well under its capacity.
	frameRate = 5000.0
	queryRate = 200.0
	// burstLen is the length of a closed-loop burst and the daemon's frame
	// budget, so a burst measures apply capacity, never shedding.
	burstLen = 8192
	// sidePass is how long a traced run drives each layer its own path
	// bypasses (the daemon driver gets twice that: paced plus bursts).
	sidePass = 1500 * time.Millisecond
)

// workload is one named input set and the driver whose path it measures.
type workload struct {
	name   string
	own    string // "replay", "stream" or "sinkd"
	params deploy.Params
}

// labDjC4 is the paper's Fig 10 setting: the 49-node Lab trace, cliques of
// up to four, ε = 0.5 °C (the temperature default).
var labDjC4 = deploy.Params{Dataset: "lab", Seed: 1, K: 4, TestSteps: labPool, HeartbeatEvery: 24}

var workloads = []workload{
	{name: "lab-replay", own: "replay", params: labDjC4},
	{name: "lab-stream", own: "stream", params: labDjC4},
	// The default kensinkd spec: garden, 11 nodes, K=2, ε 0.5, heartbeat 24.
	{name: "garden-sinkd", own: "sinkd", params: deploy.Params{
		Dataset: "garden", Seed: 1, K: 2, TestSteps: gardenPool, HeartbeatEvery: 24}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "lab-replay, lab-stream or garden-sinkd")
	seed := fs.Int64("seed", 1, "picks the readings a run replays")
	seconds := fs.Int("seconds", 12, "measurement time of one run")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload lab-replay|lab-stream|garden-sinkd, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	// The daemon logs every /v1 request at INFO. Keep its default handler
	// and level, so the formatting cost stays measured, but discard the text.
	if _, err := (obs.LogFlags{Level: "info"}).Setup(io.Discard); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{wl: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	metrics, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is not finite\n", wl.name, name)
			return 1
		}
	}
	correct := b.failed == 0
	info, _ := json.Marshal(map[string]any{"info": b.info})
	fmt.Fprintln(stdout, string(info))
	out, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their output checks\n", wl.name, b.failed, b.attempted)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	wl     workload
	seed   int64
	dur    time.Duration
	traced bool

	rng    *rand.Rand
	off    int
	dep    *deploy.Deployment
	window [][]float64

	attempted, failed int
	info              map[string]any
	out               map[string]metric
	digests           map[string]string // per driver: report sets of one pass
}

func (b *bench) set(name string, v float64, unit string) { b.out[name] = metric{v, unit} }

func (b *bench) check(attempted, failed int) {
	b.attempted += attempted
	b.failed += failed
}

func (b *bench) run() (map[string]metric, error) {
	b.out = map[string]metric{}
	b.digests = map[string]string{}
	b.rng = rand.New(rand.NewSource(b.seed))
	b.off = 24 * b.rng.Intn(b.wl.params.TestSteps/24)
	b.info = map[string]any{
		"workload": b.wl.name, "seed": b.seed, "trace": b.traced,
		"seconds": b.dur.Seconds(), "host": fingerprint(),
		"deployment":      b.wl.params.ReplicaKey(),
		"heartbeat":       b.wl.params.HeartbeatEvery,
		"readings_offset": b.off, "pass_epochs": b.wl.params.TestSteps,
	}
	if b.wl.own == "sinkd" {
		b.info["paced_frames_per_s"] = frameRate
		b.info["paced_queries_per_s"] = queryRate
		b.info["burst_frames"] = burstLen
		b.info["frame_budget"] = burstLen
	}

	setupS, buildS, sess, sessT, err := b.setup()
	if err != nil {
		return nil, err
	}
	if sess != nil {
		defer sess.close()
	}
	switch {
	case !b.traced:
		b.set("setup_s", setupS, "s")
		switch b.wl.own {
		case "replay":
			err = b.replayE2E()
		case "stream":
			err = b.streamE2E()
		default:
			err = b.sinkdE2E(sess)
		}
	default:
		b.set("deploy.build_s", buildS, "s")
		err = b.layers(sess, sessT)
	}
	if err != nil {
		return nil, err
	}
	// The own path's digest is printed so the untraced and traced runs of
	// one seed can be compared: equal digests mean equal report sets.
	b.info["digest"] = b.digests[b.wl.own]
	b.info["digests"] = b.digests
	return b.out, nil
}

// setup builds the deployment and the workload's endpoints several times
// and returns the median total and deploy.Build times. The sinkd workload
// keeps its last session open; the earlier ones are closed.
func (b *bench) setup() (setupS, buildS float64, sess *sinkdSession, sessT []float64, err error) {
	var totals, builds []float64
	begin := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begin) < setupTime); i++ {
		start := time.Now()
		dep, err := deploy.Build(b.wl.params)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		built := time.Since(start)
		switch b.wl.own {
		case "replay":
			_, err = (&replayDriver{dep: dep}).scheme(nil, nil)
		case "stream":
			_, _, err = (&streamDriver{dep: dep}).endpoints()
		default:
			var s *sinkdSession
			var d time.Duration
			s, d, err = b.sinkdDriver(dep).open()
			if err == nil {
				if sess != nil {
					sess.close()
				}
				sess = s
				sessT = append(sessT, float64(d.Nanoseconds())/1e6)
			}
		}
		if err != nil {
			if sess != nil {
				sess.close()
			}
			return 0, 0, nil, nil, err
		}
		totals = append(totals, time.Since(start).Seconds())
		builds = append(builds, built.Seconds())
		b.dep = dep
	}
	b.check(len(sessT), 0)
	b.info["setups"] = len(totals)
	b.window = cyclic(b.dep.Test, b.off, len(b.dep.Test))
	return median(totals), median(builds), sess, sessT, nil
}

// cyclic returns n rows of pool starting at off, wrapping around.
func cyclic(pool [][]float64, off, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = pool[(off+i)%len(pool)]
	}
	return out
}

func (b *bench) sinkdDriver(dep *deploy.Deployment) *sinkdDriver {
	return &sinkdDriver{params: b.wl.params, dep: dep, off: b.off}
}

// finish sets the metrics every end-to-end run ends with; hold keeps the
// workload's live state reachable while the heap is measured.
func (b *bench) finish(hold any) {
	b.set("live_heap_mb", liveHeapMiB(), "MiB")
	runtime.KeepAlive(hold)
	if b.attempted == 0 {
		b.attempted = 1
	}
	b.set("ok_frac", 1-float64(b.failed)/float64(b.attempted), "ratio")
}

// setRate reports the median per-pass rate, with the quartiles in info.
func (b *bench) setRate(rates []float64) {
	s := samples{v: rates}
	b.set("epochs_per_s", s.quantile(0.5), "1/s")
	b.info["rate_quartiles"] = []float64{s.quantile(0.25), s.quantile(0.5), s.quantile(0.75)}
	b.info["passes"] = len(rates)
}

// passQuantiles keeps each pass's answer-age p50 and p90.
type passQuantiles struct {
	p50, p90 []float64
	n        int
}

func (q *passQuantiles) add(s *samples) {
	q.p50 = append(q.p50, s.quantile(0.5))
	q.p90 = append(q.p90, s.quantile(0.9))
	q.n += s.n
}

// setLatency reports the median over passes of each pass's p50 and p90, so
// a few seconds of interference from the host move one pass, not the run.
// p90, not p99: on garden-sinkd a pass (one second) has 200 answers, and
// over a whole run the p99 fell among rare multi-millisecond stalls and
// moved by 30 % between runs.
func (b *bench) setLatency(q *passQuantiles) {
	b.set("answer_age_p50_us", median(q.p50), "us")
	b.set("answer_age_p90_us", median(q.p90), "us")
	b.info["answer_age_samples"] = q.n
	b.info["answer_age_passes"] = len(q.p50)
}

func (b *bench) replayE2E() error {
	drv := &replayDriver{dep: b.dep, window: b.window}
	warm, err := drv.pass(nil, nil, &samples{}, nil)
	if err != nil {
		return err
	}
	b.check(warm.res.Steps, warm.res.BoundViolations)
	var lat samples
	var ages passQuantiles
	var rt rtDelta
	var rates []float64
	epochs := 0
	for end := time.Now().Add(b.dur); len(rates) == 0 || time.Now().Before(end); {
		lat.reset(len(b.window))
		p, err := drv.pass(nil, nil, &lat, &rt)
		if err != nil {
			return err
		}
		b.check(p.res.Steps, p.res.BoundViolations)
		if p.digest != warm.digest {
			b.check(0, p.res.Steps)
		}
		rates = append(rates, float64(p.res.Steps)/p.elapsed.Seconds())
		epochs += p.res.Steps
		ages.add(&lat)
	}
	b.setRate(rates)
	b.setLatency(&ages)
	b.set("reported_frac", warm.res.FractionReported(), "ratio")
	b.set("wire_bytes_per_frame", float64(warm.res.WireBytes)/float64(warm.res.Steps), "B")
	b.set("allocs_per_op", float64(rt.mallocs)/float64(epochs), "count")
	b.digests["replay"] = warm.digest.String()
	b.finish(drv)
	return nil
}

// streamWarm runs the checked warm-up pass: every frame's answer is
// compared against the readings.
func (b *bench) streamWarm(drv *streamDriver) (streamPass, error) {
	warm, err := drv.pass(nil, &samples{}, nil, true)
	if err != nil {
		return warm, err
	}
	b.check(warm.frames, warm.violations)
	return warm, nil
}

func (b *bench) streamE2E() error {
	drv := &streamDriver{dep: b.dep, window: b.window}
	warm, err := b.streamWarm(drv)
	if err != nil {
		return err
	}
	var lat samples
	var ages passQuantiles
	var rt rtDelta
	var rates []float64
	frames := 0
	for end := time.Now().Add(b.dur); len(rates) == 0 || time.Now().Before(end); {
		lat.reset(len(b.window))
		p, err := drv.pass(nil, &lat, &rt, false)
		if err != nil {
			return err
		}
		b.check(p.frames, 0)
		if p.digest != warm.digest || p.final != warm.final {
			b.check(0, p.frames)
		}
		rates = append(rates, float64(p.frames)/p.busy.Seconds())
		frames += p.frames
		ages.add(&lat)
	}
	b.setRate(rates)
	b.setLatency(&ages)
	b.set("reported_frac", float64(warm.values)/float64(warm.frames*b.dep.N), "ratio")
	b.set("wire_bytes_per_frame", float64(warm.bytes)/float64(warm.frames), "B")
	b.set("allocs_per_op", float64(rt.mallocs)/float64(frames), "count")
	b.digests["stream"] = warm.digest.String()
	b.finish(drv)
	return nil
}

// sinkdWarm runs an untimed paced phase and two bursts, so connections,
// buffers and the daemon's goroutines are warm before anything is timed.
func (b *bench) sinkdWarm(sess *sinkdSession) error {
	p, err := sess.paced(300*time.Millisecond, b.rng, nil)
	if err != nil {
		return err
	}
	b.check(p.queries, p.failed)
	if _, err := sess.bursts(0, nil); err != nil {
		return err
	}
	_, err = sess.bursts(0, nil)
	return err
}

// sinkdVerify replays the session into the reference replica and counts
// its checks; it also returns the reported fraction and bytes per frame
// over the session's first pass of readings.
func (b *bench) sinkdVerify(sess *sinkdSession) (verifyOut, error) {
	v, err := sess.verify()
	if err != nil {
		return v, err
	}
	failed := v.violations
	if v.mismatch {
		failed++
		b.info["verify"] = "daemon answer differs from the reference replica"
	}
	shed, rejects, _, err := sess.counters()
	if err != nil {
		return v, err
	}
	b.check(v.frames, failed+int(shed+rejects))
	b.digests["sinkd"] = v.prefix.String()
	return v, nil
}

func (b *bench) sinkdE2E(sess *sinkdSession) error {
	if err := b.sinkdWarm(sess); err != nil {
		return err
	}
	p, err := sess.paced(b.dur/2, b.rng, nil)
	if err != nil {
		return err
	}
	b.check(p.queries, p.failed)
	bu, err := sess.bursts(b.dur/2, nil)
	if err != nil {
		return err
	}
	v, err := b.sinkdVerify(sess)
	if err != nil {
		return err
	}
	b.setRate(bu.rate)
	var ages passQuantiles
	for i := range p.age {
		ages.add(&p.age[i])
	}
	b.setLatency(&ages)
	b.set("reported_frac", float64(v.prefixValues)/float64(len(b.window)*b.dep.N), "ratio")
	b.set("wire_bytes_per_frame", float64(v.prefixBytes)/float64(len(b.window)), "B")
	b.set("allocs_per_op", float64(bu.rt.mallocs)/float64(bu.frames), "count")
	b.info["queries"] = p.queries
	b.info["generator_late_p50_us"] = p.late.quantile(0.5)
	b.info["generator_late_p99_us"] = p.late.quantile(0.99)
	p = pacedOut{}
	b.finish(sess)
	return nil
}

// layers is the traced run. The workload's own path runs alternately
// untraced and traced for the trace overhead; then every other driver
// runs traced on the same deployment and readings, so each per-layer
// metric is measured on every workload (a layer the own path bypasses is
// timed on its short side pass).
func (b *bench) layers(sess *sinkdSession, sessT []float64) error {
	var untraced, traced []float64
	var rt rtDelta
	ops := 0
	var err error
	switch b.wl.own {
	case "replay":
		untraced, traced, ops, err = b.replayLayers(b.dur, &rt)
	case "stream":
		untraced, traced, ops, err = b.streamLayers(b.dur, &rt)
	default:
		untraced, traced, ops, err = b.sinkdLayers(sess, sessT, b.dur, &rt)
	}
	if err != nil {
		return err
	}
	if b.wl.own != "replay" {
		if _, _, _, err := b.replayLayers(sidePass, nil); err != nil {
			return err
		}
	}
	if b.wl.own != "stream" {
		if _, _, _, err := b.streamLayers(sidePass, nil); err != nil {
			return err
		}
	}
	if b.wl.own != "sinkd" {
		s, d, err := b.sinkdDriver(b.dep).open()
		if err != nil {
			return err
		}
		b.check(1, 0)
		_, _, _, err = b.sinkdLayers(s, []float64{float64(d.Nanoseconds()) / 1e6}, 2*sidePass, nil)
		s.close()
		if err != nil {
			return err
		}
	}
	// On the daemon's deployment the framed in-process pass and the
	// session's first pass of frames replay the same readings through the
	// same Source configuration, so they must send the same frames.
	if b.wl.own == "sinkd" && b.digests["stream"] != b.digests["sinkd"] {
		b.check(0, len(b.window))
		b.info["sinkd_digest"] = "session frames differ from the in-process stream pass"
	}
	b.set("go.gc_cycles_per_kop", float64(rt.gcs)*1000/float64(ops), "count")
	b.set("go.gc_cpu_frac", rt.gcCPU/rt.totalCPU, "ratio")
	u, t := median(untraced), median(traced)
	b.set("trace.overhead_frac", (u-t)/u, "ratio")
	b.info["untraced_per_s"], b.info["traced_per_s"] = u, t
	return nil
}

// alternate runs untraced and traced passes in turn for dur (at least one
// of each) and returns each side's per-pass rates.
func alternate(dur time.Duration, pass func(traced bool) (float64, error)) (untraced, traced []float64, err error) {
	for end, i := time.Now().Add(dur), 0; i < 2 || time.Now().Before(end); i++ {
		r, err := pass(i%2 == 1)
		if err != nil {
			return nil, nil, err
		}
		if i%2 == 1 {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced, nil
}

// replayLayers measures core and the model stack. With rt nil it is a
// side pass: traced passes only.
func (b *bench) replayLayers(dur time.Duration, rt *rtDelta) (untraced, traced []float64, ops int, err error) {
	drv := &replayDriver{dep: b.dep, window: b.window}
	warm, err := drv.pass(nil, nil, &samples{}, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	b.check(warm.res.Steps, warm.res.BoundViolations)
	tr := newTracer()
	counts := &modelCounts{}
	epochs, reporting := 0, 0
	untraced, traced, err = alternate(dur, func(on bool) (float64, error) {
		var p replayPass
		var err error
		if on || rt == nil {
			p, err = drv.pass(tr, counts, &samples{}, nil)
			epochs += p.res.Steps
			reporting += p.reporting
		} else {
			p, err = drv.pass(nil, nil, &samples{}, rt)
			ops += p.res.Steps
		}
		if err != nil {
			return 0, err
		}
		b.check(p.res.Steps, p.res.BoundViolations)
		if p.digest != warm.digest {
			b.check(0, p.res.Steps)
			b.info["replay_digest"] = "traced pass reported different sets"
		}
		return float64(p.res.Steps) / p.elapsed.Seconds(), nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	b.set("core.step_p50_us", tr.p("core.step", 0.5), "us")
	b.set("core.step_p99_us", tr.p("core.step", 0.99), "us")
	run := tr.total("core.run")
	b.set("core.run_self_frac", (run-tr.total("core.step"))/run, "ratio")
	b.set("core.reporting_epoch_frac", float64(reporting)/float64(epochs), "ratio")
	b.set("model.step_p50_us", tr.p("model.step", 0.5), "us")
	b.set("model.condition_p50_us", tr.p("model.condition", 0.5), "us")
	b.set("model.condition_calls_per_epoch", float64(tr.calls("model.condition"))/float64(epochs), "count")
	b.set("model.cond_add_p50_us", tr.p("model.cond_add", 0.5), "us")
	b.set("model.cond_mean_p50_us", tr.p("model.cond_mean", 0.5), "us")
	b.set("model.mean_into_p50_us", tr.p("model.mean_into", 0.5), "us")
	b.set("model.search_rounds_per_report", ratio(counts.rounds, counts.searches), "count")
	b.set("model.incremental_hit_frac", ratio(counts.searches-counts.fallbacks, counts.searches), "ratio")
	modelTime := 0.0
	for _, n := range []string{"model.step", "model.mean", "model.mean_given", "model.condition",
		"model.mean_into", "model.cond_reset", "model.cond_add", "model.cond_mean"} {
		modelTime += tr.total(n)
	}
	b.set("model.share_of_step", modelTime/tr.total("core.step"), "ratio")
	b.digests["replay"] = warm.digest.String()
	return untraced, traced, ops, b.writeSpans("replay", tr)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// streamLayers measures the stream endpoints and the wire codec. With rt
// nil it is a side pass: traced passes only.
func (b *bench) streamLayers(dur time.Duration, rt *rtDelta) (untraced, traced []float64, ops int, err error) {
	drv := &streamDriver{dep: b.dep, window: b.window}
	warm, err := b.streamWarm(drv)
	if err != nil {
		return nil, nil, 0, err
	}
	tr := newTracer()
	var frames, values, heartbeats, bytes int
	untraced, traced, err = alternate(dur, func(on bool) (float64, error) {
		var p streamPass
		var err error
		if on || rt == nil {
			p, err = drv.pass(tr, &samples{}, nil, false)
			frames += p.frames
			values += p.values
			heartbeats += p.heartbeats
			bytes += p.bytes
		} else {
			p, err = drv.pass(nil, &samples{}, rt, false)
			ops += p.frames
		}
		if err != nil {
			return 0, err
		}
		b.check(p.frames, 0)
		if p.digest != warm.digest || p.final != warm.final {
			b.check(0, p.frames)
			b.info["stream_digest"] = "traced pass sent different frames"
		}
		return float64(p.frames) / p.busy.Seconds(), nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	allocs, err := drv.layerAllocs()
	if err != nil {
		return nil, nil, 0, err
	}
	b.set("stream.collect_p50_us", tr.p("stream.collect", 0.5), "us")
	b.set("stream.collect_p99_us", tr.p("stream.collect", 0.99), "us")
	b.set("stream.collect_heartbeat_p50_us", tr.p("stream.collect_heartbeat", 0.5), "us")
	b.set("stream.apply_p50_us", tr.p("stream.apply", 0.5), "us")
	b.set("stream.apply_p99_us", tr.p("stream.apply", 0.99), "us")
	b.set("stream.values_per_frame", float64(values)/float64(frames), "count")
	b.set("stream.heartbeat_frac", float64(heartbeats)/float64(frames), "ratio")
	b.set("stream.allocs_per_frame", allocs, "count")
	b.set("wire.encode_p50_ns", tr.p("wire.encode", 0.5)*1e3, "ns")
	b.set("wire.decode_p50_ns", tr.p("wire.decode", 0.5)*1e3, "ns")
	b.set("wire.bytes_per_value", float64(bytes)/float64(values), "B")
	b.digests["stream"] = warm.digest.String()
	return untraced, traced, ops, b.writeSpans("stream", tr)
}

// sinkdLayers measures the daemon on an open session: an untraced paced
// phase and bursts (own path only, rt non-nil), then the same traced.
func (b *bench) sinkdLayers(sess *sinkdSession, sessT []float64, dur time.Duration, rt *rtDelta) (untraced, traced []float64, ops int, err error) {
	if err := b.sinkdWarm(sess); err != nil {
		return nil, nil, 0, err
	}
	if rt != nil {
		dur /= 2
		p, err := sess.paced(dur/2, b.rng, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		b.check(p.queries, p.failed)
		bu, err := sess.bursts(dur/2, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		*rt, untraced, ops = bu.rt, bu.rate, bu.frames
	}
	tr := newTracer()
	p, err := sess.paced(dur/2, b.rng, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	b.check(p.queries, p.failed)
	bu, err := sess.bursts(dur/2, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := b.sinkdVerify(sess); err != nil {
		return nil, nil, 0, err
	}
	shed, rejects, feed, err := sess.counters()
	if err != nil {
		return nil, nil, 0, err
	}
	b.set("sinkd.session_ms", median(sessT), "ms")
	b.set("sinkd.write_p50_us", tr.p("sinkd.write", 0.5), "us")
	b.set("sinkd.write_p99_us", tr.p("sinkd.write", 0.99), "us")
	b.set("sinkd.backlog_max_frames", float64(p.backlogMax), "count")
	b.set("sinkd.ingest_apply_p50_ms", p.sloLatP50*1e3, "ms")
	b.set("sinkd.ingest_apply_p99_ms", p.sloLatP99*1e3, "ms")
	b.set("sinkd.burst_drain_ms", bu.drain.quantile(0.5), "ms")
	b.set("sinkd.shed_total", float64(shed), "count")
	b.set("sinkd.reject_total", float64(rejects), "count")
	b.set("sinkd.query_p50_us", p.query.quantile(0.5), "us")
	b.set("sinkd.query_p99_us", p.query.quantile(0.99), "us")
	dropped := 0.0
	if n := feed.Published + feed.Dropped; n > 0 {
		dropped = float64(feed.Dropped) / float64(n)
	}
	b.set("slo.feed_dropped_frac", dropped, "ratio")
	return untraced, bu.rate, ops, b.writeSpans("sinkd", tr)
}

// writeSpans writes the traced spans to .perfbench/ under the checkout.
func (b *bench) writeSpans(driver string, tr *tracer) error {
	dir := ".perfbench"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", b.wl.name, b.seed, driver))
	if err := tr.writeSpans(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	files, _ := b.info["span_files"].([]string)
	b.info["span_files"] = append(files, path)
	if tr.dropped > 0 {
		b.info["spans_dropped_"+driver] = tr.dropped
	}
	return nil
}
