// Command kenswarm is the load generator and correctness harness for
// kensinkd: it opens N concurrent tenant sessions against one daemon
// (M distinct deployment specs, tenants round-robined across them),
// streams every tenant's report frames, and measures sessions/sec and
// frames/sec. With -verify it also proves zero cross-tenant divergence:
// each tenant's /v1/query answer must be bit-identical to a local
// single-tenant reference replica built from the same spec and fed the
// same frames (the lock-step property a standalone kensim run or a
// kensinkd -pin daemon at that spec computes), and within ±ε of the
// ground truth rows. The repository benchmark (perfbench/) is the
// repeated, per-layer throughput yardstick; kenswarm's rates are a
// single pass.
//
//	kenswarm -selfhost -tenants 64 -specs 4 -steps 200 -verify
//	kenswarm -connect 127.0.0.1:7070 -http http://127.0.0.1:7071 -tenants 16 -verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"ken/internal/deploy"
	"ken/internal/obs"
	"ken/internal/sinkd"
	"ken/internal/stream"
	"ken/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	connect  string
	httpBase string
	selfhost bool
	tenants  int
	specs    int
	wait     time.Duration
	verify   bool
	params   deploy.Params
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kenswarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	o.params.Register(fs)
	fs.StringVar(&o.connect, "connect", "", "kensinkd session address (empty with -selfhost)")
	fs.StringVar(&o.httpBase, "http", "", "kensinkd query API base URL, e.g. http://127.0.0.1:7071 (needed by -verify unless -selfhost)")
	fs.BoolVar(&o.selfhost, "selfhost", false, "run an in-process kensinkd on ephemeral ports instead of connecting out")
	fs.IntVar(&o.tenants, "tenants", 8, "concurrent tenant sessions to open")
	fs.IntVar(&o.specs, "specs", 1, "distinct deployment specs (seeds -seed .. -seed+specs-1), tenants round-robined across them")
	fs.IntVar(&o.params.TestSteps, "steps", 120, "steps each tenant streams")
	fs.IntVar(&o.params.HeartbeatEvery, "heartbeat", 24, "heartbeat frame interval (0 disables)")
	fs.DurationVar(&o.wait, "wait", 5*time.Second, "retry window for the first connection (lets the daemon finish starting)")
	fs.BoolVar(&o.verify, "verify", false, "after streaming, check every tenant's /v1/query answer bit-identical to a local reference replica and within ±ε of truth")
	var logFlags obs.LogFlags
	logFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logFlags.Setup(nil); err != nil {
		fmt.Fprintf(stderr, "kenswarm: %v\n", err)
		return 2
	}
	if err := o.run(stdout); err != nil {
		slog.Error("swarm failed", "err", err)
		fmt.Fprintf(stderr, "kenswarm: %v\n", err)
		return 1
	}
	return 0
}

// swarmTenant is one session: its spec, source endpoint, test rows and —
// under -verify — the local reference replica fed the same frames.
type swarmTenant struct {
	name string
	spec deploy.Params
	src  *stream.Source
	ref  *stream.Replica
	test [][]float64
}

func (o options) run(stdout io.Writer) error {
	if o.tenants <= 0 {
		return fmt.Errorf("kenswarm: -tenants must be positive, got %d", o.tenants)
	}
	if o.specs <= 0 || o.specs > o.tenants {
		o.specs = min(max(o.specs, 1), o.tenants)
	}
	if err := o.params.Validate(); err != nil {
		return err
	}

	if o.selfhost {
		stopDaemon, sessionAddr, httpBase, err := selfhost()
		if err != nil {
			return err
		}
		defer stopDaemon()
		o.connect, o.httpBase = sessionAddr, httpBase
		slog.Info("selfhosted kensinkd up", "listen", sessionAddr, "http", httpBase)
	}
	if o.connect == "" {
		return fmt.Errorf("kenswarm: -connect is required without -selfhost")
	}
	if o.verify && o.httpBase == "" {
		return fmt.Errorf("kenswarm: -verify needs -http (the daemon's query API base URL)")
	}

	// Build the distinct specs once; tenants round-robin across them.
	deps := make([]*deploy.Deployment, o.specs)
	specs := make([]deploy.Params, o.specs)
	for s := 0; s < o.specs; s++ {
		p := o.params
		p.Seed = o.params.Seed + int64(s)
		dep, err := deploy.Build(p)
		if err != nil {
			return fmt.Errorf("building spec %s: %w", p.ReplicaKey(), err)
		}
		deps[s], specs[s] = dep, p
	}
	tenants := make([]*swarmTenant, o.tenants)
	for i := range tenants {
		s := i % o.specs
		src, err := stream.NewSource(deps[s].Config)
		if err != nil {
			return err
		}
		tn := &swarmTenant{
			name: fmt.Sprintf("swarm-%d", i),
			spec: specs[s],
			src:  src,
			test: deps[s].Test,
		}
		if o.verify {
			if tn.ref, err = stream.NewReplica(deps[s].Config); err != nil {
				return err
			}
		}
		tenants[i] = tn
	}
	slog.Info("swarm ready", "tenants", o.tenants, "specs", o.specs,
		"steps", o.params.TestSteps)

	// Phase 1 — sessions: dial + handshake every tenant concurrently.
	conns := make([]net.Conn, o.tenants)
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	start := time.Now()
	errs := make(chan error, o.tenants)
	var mu sync.Mutex
	for i, tn := range tenants {
		go func(i int, tn *swarmTenant) {
			conn, err := dialRetry(o.connect, o.wait)
			if err == nil {
				_, err = stream.Handshake(conn, wire.Hello{
					Tenant: tn.name, Spec: tn.spec.EncodeSpec(),
				})
			}
			if err != nil {
				errs <- fmt.Errorf("tenant %s: %w", tn.name, err)
				return
			}
			mu.Lock()
			conns[i] = conn
			mu.Unlock()
			errs <- nil
		}(i, tn)
	}
	for range tenants {
		if err := <-errs; err != nil {
			return err
		}
	}
	sessionsSec := time.Since(start).Seconds()
	slog.Info("sessions open", "tenants", o.tenants,
		"elapsed", fmt.Sprintf("%.3fs", sessionsSec))

	// Phase 2 — streaming: every tenant pumps its frames concurrently,
	// mirroring each frame into its local reference replica when
	// verifying.
	start = time.Now()
	frames := 0
	for i, tn := range tenants {
		go func(conn net.Conn, tn *swarmTenant) {
			n, err := pump(conn, tn)
			mu.Lock()
			frames += n
			mu.Unlock()
			if err != nil {
				errs <- fmt.Errorf("tenant %s: %w", tn.name, err)
				return
			}
			errs <- nil
		}(conns[i], tn)
	}
	for range tenants {
		if err := <-errs; err != nil {
			return err
		}
	}
	streamSec := time.Since(start).Seconds()
	for i, c := range conns {
		_ = c.Close() // half-close: daemon sees EOF, tenant turns "closed"
		conns[i] = nil
	}

	sessPerSec := float64(o.tenants) / sessionsSec
	framesPerSec := float64(frames) / streamSec
	fmt.Fprintf(stdout, "kenswarm: %d tenants × %d steps over %d specs: %.0f sessions/sec, %.0f frames/sec\n",
		o.tenants, o.params.TestSteps, o.specs, sessPerSec, framesPerSec)

	if o.verify {
		if err := verifyAnswers(o.httpBase, tenants); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "kenswarm: verified %d tenants: answers bit-identical to the single-tenant reference and within ±ε of truth\n",
			len(tenants))
	}
	return nil
}

// dialRetry dials until the window closes — the daemon may still be
// binding its listener when the swarm starts (sinkd-smoke races them).
func dialRetry(addr string, wait time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(wait)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// pump streams the tenant's test rows, mirroring frames into the local
// reference replica when verifying, and surfaces a typed shed reject.
func pump(conn net.Conn, tn *swarmTenant) (int, error) {
	frames := 0
	for _, row := range tn.test {
		f, err := tn.src.Collect(row)
		if err != nil {
			return frames, err
		}
		if err := stream.WriteFrame(conn, f, tn.src.Resolution()); err != nil {
			if rej := pendingReject(conn); rej != nil {
				return frames, fmt.Errorf("shed by the sink: %w", rej)
			}
			return frames, err
		}
		if tn.ref != nil {
			if err := tn.ref.Apply(f); err != nil {
				return frames, err
			}
		}
		frames++
	}
	return frames, nil
}

// pendingReject drains a waiting session frame after a write error, so a
// shed tenant reports the sink's typed reason instead of a raw EPIPE.
func pendingReject(conn net.Conn) error {
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return nil
	}
	for {
		s, err := stream.ReadSession(conn)
		if err != nil {
			return nil
		}
		if s.Reject != nil {
			return s.Reject.Err()
		}
	}
}

// verifyAnswers fetches every tenant's /v1/query answer and requires it
// bit-identical to the local reference replica (fed exactly the frames
// the tenant sent) and within ±ε of the final ground-truth row.
func verifyAnswers(httpBase string, tenants []*swarmTenant) error {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tn := range tenants {
		want := tn.ref.Answer()
		// The daemon applies asynchronously: after the stream closes its
		// applier may still be draining the frame queue, so poll until
		// the step counts meet before comparing answers.
		var resp sinkd.QueryResponse
		deadline := time.Now().Add(10 * time.Second)
		for {
			if err := getJSON(client, fmt.Sprintf("%s/v1/query?tenant=%s", httpBase, tn.name), &resp); err != nil {
				return fmt.Errorf("tenant %s: %w", tn.name, err)
			}
			if resp.Answer.Step >= want.Step || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if resp.Answer.Step != want.Step {
			return fmt.Errorf("tenant %s: daemon applied %d frames, reference %d",
				tn.name, resp.Answer.Step, want.Step)
		}
		if len(resp.Answer.Estimates) != len(want.Estimates) {
			return fmt.Errorf("tenant %s: answer dim %d, want %d",
				tn.name, len(resp.Answer.Estimates), len(want.Estimates))
		}
		truth := tn.test[len(tn.test)-1]
		for i, got := range resp.Answer.Estimates {
			// Bit-identical: JSON float64 round-trips exactly, so the
			// daemon's replica diverging by one ULP is detected.
			if math.Float64bits(got) != math.Float64bits(want.Estimates[i]) {
				return fmt.Errorf("tenant %s attr %d: daemon answer %v diverges from reference %v",
					tn.name, i, got, want.Estimates[i])
			}
			if d := math.Abs(got - truth[i]); d > want.Eps[i]+1e-9 {
				return fmt.Errorf("tenant %s attr %d: answer %v misses truth %v beyond ε=%v",
					tn.name, i, got, truth[i], want.Eps[i])
			}
		}
	}
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // response body close error carries no data
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// selfhost starts an in-process daemon on ephemeral ports.
func selfhost() (stop func(), sessionAddr, httpBase string, err error) {
	d := sinkd.New(sinkd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", "", err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = ln.Close()
		return nil, "", "", err
	}
	httpSrv := &http.Server{Handler: d.Handler()}
	go func() { _ = d.Serve(ln) }()
	go func() { _ = httpSrv.Serve(httpLn) }()
	stop = func() {
		_ = ln.Close()
		_ = httpSrv.Close()
		d.Close()
	}
	return stop, ln.Addr().String(), "http://" + httpLn.Addr().String(), nil
}
