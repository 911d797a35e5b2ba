package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ken/internal/deploy"
	"ken/internal/obs"
	"ken/internal/sinkd"
	"ken/internal/slo"
	"ken/internal/stream"
	"ken/internal/wire"
)

const tenantName = "bench"

// sinkdDriver streams a deployment's readings into an in-process
// sinkd.Daemon over loopback TCP on one session connection, and queries
// /v1/query on one keep-alive HTTP connection.
type sinkdDriver struct {
	params deploy.Params
	dep    *deploy.Deployment
	off    int // the session's first frame reads dep.Test[off]; reads wrap around
}

func (s *sinkdDriver) row(k int) []float64 { return s.dep.Test[(s.off+k)%len(s.dep.Test)] }

// sinkdSession is one daemon with one streaming tenant.
type sinkdSession struct {
	drv    *sinkdDriver
	d      *sinkd.Daemon
	ln     net.Listener
	hln    net.Listener
	srv    *http.Server
	wg     sync.WaitGroup
	conn   net.Conn
	tr     *http.Transport
	client *http.Client
	base   string
	src    *stream.Source
	res    float64
	sent   atomic.Int64 // frames written on the session
}

// open starts a daemon on ephemeral loopback ports and opens the tenant's
// session; it returns the HELLO → ACCEPT time.
func (s *sinkdDriver) open() (*sinkdSession, time.Duration, error) {
	ss := &sinkdSession{drv: s, d: sinkd.New(sinkd.Config{FrameBudget: burstLen})}
	var err error
	if ss.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		ss.d.Close()
		return nil, 0, err
	}
	if ss.hln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = ss.ln.Close()
		ss.d.Close()
		return nil, 0, err
	}
	ss.srv = &http.Server{Handler: ss.d.Handler()}
	ss.wg.Add(2)
	go func() { defer ss.wg.Done(); _ = ss.d.Serve(ss.ln) }()
	go func() { defer ss.wg.Done(); _ = ss.srv.Serve(ss.hln) }()
	ss.tr = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	ss.client = &http.Client{Transport: ss.tr, Timeout: 10 * time.Second}
	ss.base = "http://" + ss.hln.Addr().String()
	if ss.src, err = stream.NewSource(s.dep.Config); err != nil {
		ss.close()
		return nil, 0, err
	}
	ss.res = ss.src.Resolution()

	start := time.Now()
	if ss.conn, err = net.Dial("tcp", ss.ln.Addr().String()); err != nil {
		ss.close()
		return nil, 0, err
	}
	if _, err = stream.Handshake(ss.conn, wire.Hello{Tenant: tenantName, Spec: s.params.EncodeSpec()}); err != nil {
		ss.close()
		return nil, 0, fmt.Errorf("session handshake: %w", err)
	}
	return ss, time.Since(start), nil
}

// close tears the daemon down and waits for every goroutine it started.
func (ss *sinkdSession) close() {
	if ss.conn != nil {
		_ = ss.conn.Close()
	}
	_ = ss.ln.Close()
	_ = ss.srv.Close()
	ss.d.Close()
	ss.wg.Wait()
	ss.tr.CloseIdleConnections()
}

// send collects and writes the session's next frame.
func (ss *sinkdSession) send(tr *tracer) error {
	k := int(ss.sent.Load())
	f, err := ss.src.Collect(ss.drv.row(k))
	if err != nil {
		return fmt.Errorf("collect frame %d: %w", k, err)
	}
	tr.open("sinkd.write", int64(k))
	err = stream.WriteFrame(ss.conn, f, ss.res)
	tr.close()
	if err != nil {
		return fmt.Errorf("write frame %d: %w", k, err)
	}
	ss.sent.Add(1)
	return nil
}

// applied returns how many frames the daemon's replica has folded in.
func (ss *sinkdSession) applied() (int, error) {
	ans, ok := ss.d.Answer(tenantName)
	if !ok {
		return 0, errors.New("tenant has no replica")
	}
	return ans.Step, nil
}

// drain waits until every sent frame is applied and returns when that
// was first seen.
func (ss *sinkdSession) drain() (time.Time, error) {
	want := int(ss.sent.Load())
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, err := ss.applied()
		if err != nil {
			return time.Time{}, err
		}
		now := time.Now()
		if n >= want {
			return now, nil
		}
		if now.After(deadline) {
			return time.Time{}, fmt.Errorf("daemon applied %d of %d frames after 30s", n, want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// pacedOut is what the open-loop phase measured.
type pacedOut struct {
	age         []samples // per second of queries, microseconds
	query, late samples   // microseconds
	queries     int
	failed      int // errored queries and answers off truth by more than ε
	backlogMax  int
	sloLatP50   float64 // seconds, from /v1/slo at the end of the phase
	sloLatP99   float64
}

// paced runs frames open-loop at frameRate and /v1/query open-loop at
// queryRate for dur. Each query's due time carries a seeded phase jitter of
// up to one frame period, so answer ages sample every phase between two
// frames rather than one fixed offset.
func (ss *sinkdSession) paced(dur time.Duration, rng *rand.Rand, tr *tracer) (pacedOut, error) {
	period := time.Duration(float64(time.Second) / frameRate)
	qperiod := time.Duration(float64(time.Second) / queryRate)
	nFrames := int(dur / period)
	base := int(ss.sent.Load())
	start := time.Now().Add(2 * time.Millisecond)
	frameDue := func(k int) time.Time { return start.Add(time.Duration(k-base) * period) }
	var qdue []time.Time
	for j := 0; ; j++ {
		due := start.Add(5*time.Millisecond + time.Duration(j)*qperiod +
			time.Duration(rng.Float64()*float64(period)))
		if due.After(start.Add(dur)) {
			break
		}
		qdue = append(qdue, due)
	}

	fp, err := newPacer()
	if err != nil {
		return pacedOut{}, err
	}
	defer fp.close()
	qp, err := newPacer()
	if err != nil {
		return pacedOut{}, err
	}
	defer qp.close()

	var out pacedOut
	var qerr error
	qtr := tr.child()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qerr = ss.queryLoop(qp, qdue, base, frameDue, &out, qtr)
	}()
	var ferr error
	for i := 0; i < nFrames && ferr == nil; i++ {
		due := frameDue(base + i)
		if ferr = fp.until(due); ferr == nil {
			out.late.add(float64(time.Since(due).Nanoseconds()) / 1e3)
			ferr = ss.send(tr)
		}
	}
	wg.Wait()
	tr.merge(qtr)
	if ferr != nil {
		return out, ferr
	}
	if qerr != nil {
		return out, qerr
	}
	var st slo.TenantStatus
	if err := ss.getJSON("/v1/slo?tenant="+tenantName, &st); err != nil {
		return out, err
	}
	out.sloLatP50, out.sloLatP99 = st.Window.LatencyP50, st.Window.LatencyP99
	return out, nil
}

// queryLoop issues one /v1/query at each due time and measures the round
// trip and the age of the answer: the response time minus the due time of
// the newest frame the answer reflects.
func (ss *sinkdSession) queryLoop(p *pacer, qdue []time.Time, base int, frameDue func(int) time.Time, out *pacedOut, tr *tracer) error {
	eps := ss.drv.dep.Config.Eps
	for j, due := range qdue {
		if err := p.until(due); err != nil {
			return err
		}
		sent := ss.sent.Load()
		tr.open("sinkd.query", int64(j))
		start := time.Now()
		var resp sinkd.QueryResponse
		err := ss.getJSON("/v1/query?tenant="+tenantName, &resp)
		end := time.Now()
		tr.close()
		out.queries++
		if err != nil {
			out.failed++
			continue
		}
		newest := resp.Answer.Step - 1
		if newest < 0 {
			out.failed++
			continue
		}
		out.query.add(float64(end.Sub(start).Nanoseconds()) / 1e3)
		if backlog := int(sent) - resp.Answer.Step; backlog > out.backlogMax {
			out.backlogMax = backlog
		}
		if len(resp.Answer.Estimates) != len(eps) ||
			offBy(resp.Answer.Estimates, ss.drv.row(newest), eps) > 0 {
			out.failed++
			continue
		}
		if newest >= base {
			// One pass of answer ages per second of queries.
			w := j / int(queryRate)
			for len(out.age) <= w {
				out.age = append(out.age, samples{})
			}
			out.age[w].add(float64(end.Sub(frameDue(newest)).Nanoseconds()) / 1e3)
		}
	}
	return nil
}

// burstOut is what the closed-loop phase measured.
type burstOut struct {
	rate   []float64 // frames per second per burst, clocked to the last applied frame
	drain  samples   // last write → last applied, milliseconds
	frames int
	rt     rtDelta
}

// bursts writes closed-loop bursts of burstLen frames until dur has passed
// (at least one burst), draining the daemon between bursts.
func (ss *sinkdSession) bursts(dur time.Duration, tr *tracer) (burstOut, error) {
	var out burstOut
	end := time.Now().Add(dur)
	for len(out.rate) == 0 || time.Now().Before(end) {
		if _, err := ss.drain(); err != nil {
			return out, err
		}
		before := readRuntime()
		start := time.Now()
		for i := 0; i < burstLen; i++ {
			if err := ss.send(tr); err != nil {
				return out, err
			}
		}
		lastWrite := time.Now()
		done, err := ss.drain()
		if err != nil {
			return out, err
		}
		out.rt.add(before, readRuntime())
		el := done.Sub(start)
		out.frames += burstLen
		out.rate = append(out.rate, burstLen/el.Seconds())
		out.drain.add(float64(done.Sub(lastWrite).Nanoseconds()) / 1e6)
	}
	return out, nil
}

// pacer wakes its goroutine at given times through a timerfd read on the
// runtime's poller. time.Sleep wakes an idle process only at millisecond
// granularity, which would make the pacer, not the daemon, dominate every
// answer age; a blocking nanosleep is precise but keeps the sleeper's P
// until the runtime's monitor retakes it, stalling the daemon's goroutines.
// A poller read is precise to tens of microseconds and holds no P.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the poller.
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

const clockMonotonic = 1

// until blocks until t.
func (p *pacer) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { _ = p.f.Close() }

func (ss *sinkdSession) getJSON(path string, v any) error {
	resp, err := ss.client.Get(ss.base + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters reads the daemon-wide shed and reject totals and the SLO feed's
// publish/drop counts.
func (ss *sinkdSession) counters() (shed, rejects int64, feed slo.FeedStats, err error) {
	var snap obs.Snapshot
	if err = ss.getJSON("/v1/metrics", &snap); err != nil {
		return
	}
	var health sinkd.HealthReport
	if err = ss.getJSON("/v1/health", &health); err != nil {
		return
	}
	return snap.Counters["sinkd_tenants_shed_total"], snap.Counters["sinkd_sessions_rejected_total"], health.Feed, nil
}

// verifyOut is the result of replaying the session's frames into an
// in-benchmark reference replica.
type verifyOut struct {
	frames     int
	violations int // reference answers off truth by more than ε
	mismatch   bool
	// Over the session's first pass of readings: their report-set digest,
	// values reported and encoded bytes.
	prefix       digest
	prefixValues int
	prefixBytes  int
}

// verify waits for the daemon to apply every frame, then replays the same
// readings through a fresh Source into a reference stream.Replica: every
// reference answer must be within ε of the readings, and the tenant's
// final /v1/query answer must equal the reference bit for bit.
func (ss *sinkdSession) verify() (verifyOut, error) {
	if _, err := ss.drain(); err != nil {
		return verifyOut{}, err
	}
	var resp sinkd.QueryResponse
	if err := ss.getJSON("/v1/query?tenant="+tenantName, &resp); err != nil {
		return verifyOut{}, err
	}
	s := ss.drv
	src, err := stream.NewSource(s.dep.Config)
	if err != nil {
		return verifyOut{}, err
	}
	ref, err := stream.NewReplica(s.dep.Config)
	if err != nil {
		return verifyOut{}, err
	}
	out := verifyOut{frames: int(ss.sent.Load()), prefix: newDigest()}
	eps := s.dep.Config.Eps
	for k := 0; k < out.frames; k++ {
		f, err := src.Collect(s.row(k))
		if err != nil {
			return out, err
		}
		if k < len(s.dep.Test) {
			frameDigest(&out.prefix, f)
			buf, err := wire.Encode(f, src.Resolution())
			if err != nil {
				return out, err
			}
			out.prefixValues += len(f.Attrs)
			out.prefixBytes += len(buf)
		}
		if err := ref.Apply(f); err != nil {
			return out, err
		}
		out.violations += offBy(ref.Estimates(), s.row(k), eps)
	}
	want := ref.Answer()
	out.mismatch = resp.Answer.Step != want.Step || len(resp.Answer.Estimates) != len(want.Estimates)
	for i := 0; !out.mismatch && i < len(want.Estimates); i++ {
		out.mismatch = math.Float64bits(resp.Answer.Estimates[i]) != math.Float64bits(want.Estimates[i])
	}
	if resp.State != sinkd.StateStreaming {
		out.mismatch = true
	}
	return out, nil
}
