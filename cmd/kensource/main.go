// Command kensource is the sensor-network endpoint of the streaming Ken
// system: it builds the source replica from its deployment flags,
// connects to a kensinkd sink, and opens the session with a
// HELLO frame carrying the serialized deployment spec — the sink builds
// its replica from that spec, so the two processes no longer have to be
// launched with byte-identical flags. After the typed ACCEPT it streams
// one report frame per sampling step over TCP.
//
//	kensinkd  -listen 127.0.0.1:7070 &
//	kensource -connect 127.0.0.1:7070 -tenant garden-a -seed 1 -steps 500
//	kensource -connect 127.0.0.1:7070 -tenant garden-b -seed 7 -steps 500
//
// A sink that speaks another protocol version answers with a typed
// version reject (wire.ErrVersionMismatch names both versions); a pinned
// or overloaded sink rejects the spec (wire.ErrSpecRejected carries the
// code and reason). With -obs-addr the source serves live /metrics
// (frames/values sent, heartbeats) plus /debug/pprof while streaming.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"time"

	"ken/internal/deploy"
	"ken/internal/obs"
	"ken/internal/stream"
	"ken/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flags; run stays a thin parser so the whole
// streaming path is testable without a process boundary.
type options struct {
	connect string
	tenant  string
	params  deploy.Params
	ob      *obs.Observer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kensource", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	o.params.Register(fs)
	fs.StringVar(&o.connect, "connect", "127.0.0.1:7070", "kensinkd session address")
	fs.StringVar(&o.tenant, "tenant", "", "tenant name offered in the handshake (empty = sink assigns one)")
	fs.IntVar(&o.params.TestSteps, "steps", 500, "steps to stream")
	fs.IntVar(&o.params.HeartbeatEvery, "heartbeat", 24, "heartbeat frame interval (0 disables)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	var logFlags obs.LogFlags
	logFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logFlags.Setup(nil); err != nil {
		fmt.Fprintf(stderr, "kensource: %v\n", err)
		return 2
	}
	o.ob = &obs.Observer{Reg: obs.NewRegistry()}
	if *obsAddr != "" {
		_, bound, err := obs.Serve(*obsAddr, o.ob.Reg)
		if err != nil {
			slog.Error("observability endpoint", "err", err)
			return 1
		}
		slog.Info("observability endpoint up", "addr", bound.String(),
			"paths", "/metrics /debug/vars /debug/pprof/")
	}
	if err := o.run(stdout); err != nil {
		slog.Error("run failed", "err", err)
		fmt.Fprintf(stderr, "kensource: %v\n", err)
		return 1
	}
	return 0
}

func (o options) run(stdout io.Writer) error {
	if err := o.params.Validate(); err != nil {
		return err
	}
	dep, err := deploy.Build(o.params)
	if err != nil {
		return err
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		return err
	}
	src.Instrument(o.ob)

	conn, err := net.Dial("tcp", o.connect)
	if err != nil {
		return err
	}
	defer conn.Close()

	acc, err := stream.Handshake(conn, wire.Hello{
		Tenant: o.tenant,
		Spec:   o.params.EncodeSpec(),
	})
	if err != nil {
		return fmt.Errorf("handshake with %s: %w", o.connect, err)
	}
	slog.Info("session accepted", "addr", o.connect, "tenant", acc.Tenant,
		"steps", len(dep.Test), "spec", o.params.ReplicaKey(),
		"partition", dep.Partition.String())

	values := 0
	for _, row := range dep.Test {
		f, err := src.Collect(row)
		if err != nil {
			return err
		}
		values += len(f.Attrs)
		if err := stream.WriteFrame(conn, f, src.Resolution()); err != nil {
			// A mid-stream write failure is usually the sink shedding us:
			// surface its typed reject when one is waiting.
			if rej := pendingReject(conn); rej != nil {
				return fmt.Errorf("sink dropped the session: %w", rej)
			}
			return err
		}
	}
	total := len(dep.Test) * dep.N
	fmt.Fprintf(stdout, "kensource: tenant %s sent %d of %d values (%.1f%%)\n",
		acc.Tenant, values, total, 100*float64(values)/float64(total))
	return nil
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
