package stream

import (
	"bytes"
	"io"
	"math"
	"net"
	"reflect"
	"sort"
	"testing"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/trace"
	"ken/internal/wire"
)

// testConfig builds a shared endpoint config over garden data and returns
// it with the test rows.
func testConfig(t testing.TB) (Config, [][]float64) {
	t.Helper()
	tr, err := trace.GenerateGarden(71, 350)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	p := &cliques.Partition{}
	for i := 0; i < n; i += 2 {
		if i+1 < n {
			p.Cliques = append(p.Cliques, cliques.Clique{Members: []int{i, i + 1}, Root: i})
		} else {
			p.Cliques = append(p.Cliques, cliques.Clique{Members: []int{i}, Root: i})
		}
	}
	cfg := Config{
		Partition: p,
		Train:     rows[:100],
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	}
	return cfg, rows[100:]
}

func TestConfigValidation(t *testing.T) {
	cfg, _ := testConfig(t)
	bad := cfg
	bad.Partition = nil
	if _, err := NewSource(bad); err == nil {
		t.Fatal("expected error for missing partition")
	}
	bad = cfg
	bad.Train = nil
	if _, err := NewReplica(bad); err == nil {
		t.Fatal("expected error for missing training data")
	}
	bad = cfg
	bad.Eps = cfg.Eps[:2]
	if _, err := NewSource(bad); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
	bad = cfg
	bad.Resolution = 2 // coarser than ε
	if _, err := NewSource(bad); err == nil {
		t.Fatal("expected error for too-coarse resolution")
	}
}

func TestEndToEndGuaranteeOverBuffer(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.Resolution() != sink.Resolution() {
		t.Fatal("endpoints negotiated different resolutions")
	}
	var pipe bytes.Buffer
	var body []byte
	sent := 0
	for step, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		sent += len(f.Attrs)
		if err := WriteFrame(&pipe, f, src.Resolution()); err != nil {
			t.Fatal(err)
		}
		var got wire.Frame
		got, body, err = ReadFrameBuf(&pipe, sink.Resolution(), body)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(got); err != nil {
			t.Fatal(err)
		}
		est := sink.Estimates()
		for i := range row {
			if d := math.Abs(est[i] - row[i]); d > 0.5+1e-9 {
				t.Fatalf("step %d attr %d: estimate %v vs truth %v exceeds ε", step, i, est[i], row[i])
			}
		}
	}
	if frac := float64(sent) / float64(len(test)*11); frac >= 1 || frac <= 0.05 {
		t.Fatalf("fraction sent %v out of plausible range", frac)
	}
	if sink.Steps() != len(test) {
		t.Fatalf("sink applied %d frames, want %d", sink.Steps(), len(test))
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	cfg, test := testConfig(t)
	test = test[:120]
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serveErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		serveErr <- sink.Serve(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(conn, f, src.Resolution()); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if sink.Steps() != len(test) {
		t.Fatalf("sink applied %d frames, want %d", sink.Steps(), len(test))
	}
	est := sink.Estimates()
	last := test[len(test)-1]
	for i := range last {
		if d := math.Abs(est[i] - last[i]); d > 0.5+1e-9 {
			t.Fatalf("final estimate %d off by %v", i, d)
		}
	}
}

func TestHeartbeatFrames(t *testing.T) {
	cfg, test := testConfig(t)
	cfg.HeartbeatEvery = 10
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	test = test[:50]
	for _, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if hb := sink.Heartbeats(); hb != 5 {
		t.Fatalf("heartbeats = %d, want 5", hb)
	}
}

func TestApplyRejectsOutOfOrderFrames(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := src.Collect(test[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := src.Collect(test[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Apply(f1); err == nil {
		t.Fatal("expected error for skipped frame")
	}
	if err := sink.Apply(f0); err != nil {
		t.Fatal(err)
	}
	bad := wire.Frame{Step: 1, Attrs: []int{99}, Values: []float64{1}}
	if err := sink.Apply(bad); err == nil {
		t.Fatal("expected error for out-of-range attribute")
	}
}

func TestReadFrameErrors(t *testing.T) {
	if _, _, err := ReadFrameBuf(bytes.NewReader(nil), 0.01, nil); err != io.EOF {
		t.Fatalf("empty reader: got %v, want io.EOF", err)
	}
	// Partial header.
	if _, _, err := ReadFrameBuf(bytes.NewReader([]byte{0, 0}), 0.01, nil); err == nil || err == io.EOF {
		t.Fatalf("partial header: got %v", err)
	}
	// Oversized frame.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrameBuf(&buf, 0.01, nil); err == nil {
		t.Fatal("expected error for oversized frame")
	}
	// Truncated body.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, _, err := ReadFrameBuf(&buf, 0.01, nil); err == nil || err == io.EOF {
		t.Fatal("expected error for truncated body")
	}
}

func TestSourceCollectValidation(t *testing.T) {
	cfg, _ := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Collect([]float64{1, 2}); err == nil {
		t.Fatal("expected error for truth dim mismatch")
	}
}

// TestReplicaConcurrentEstimates hammers Estimates from readers while
// frames apply — the sink serves live queries during ingestion, so this
// must be race-free (run under -race).
func TestReplicaConcurrentEstimates(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				est := sink.Estimates()
				if len(est) != 11 {
					t.Errorf("estimates dim %d", len(est))
					return
				}
				_ = sink.Steps()
				_ = sink.Heartbeats()
			}
		}
	}()
	for _, row := range test[:150] {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

// TestSourcesEmitIdenticalFrames: frames are a deterministic function of
// the readings. Two sources fed the same rows emit identical frames, each
// with its attributes ascending — also when the cliques interleave, so a
// frame's attributes arrive from several cliques out of order — and a
// replica applying them answers within ε.
func TestSourcesEmitIdenticalFrames(t *testing.T) {
	cfg, rows := testConfig(t)
	n := len(cfg.Eps)
	p := &cliques.Partition{}
	for i := 0; i < 4; i++ {
		var members []int
		for g := i; g < n; g += 4 {
			members = append(members, g)
		}
		p.Cliques = append(p.Cliques, cliques.Clique{Members: members, Root: i})
	}
	cfg.Partition = p
	cfg.HeartbeatEvery = 5
	a, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for step, row := range rows[:150] {
		fa, err := a.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := b.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("step %d: sources diverged:\n%+v\n%+v", step, fa, fb)
		}
		if !sort.IntsAreSorted(fa.Attrs) {
			t.Fatalf("step %d: frame attributes %v not ascending", step, fa.Attrs)
		}
		if len(fa.Attrs) > len(p.Cliques[0].Members) {
			multi++
		}
		if err := rep.Apply(fa); err != nil {
			t.Fatal(err)
		}
		for g, v := range rep.Estimates() {
			if math.Abs(v-row[g]) > cfg.Eps[g]+1e-9 {
				t.Fatalf("step %d attr %d: estimate %v, reading %v", step, g, v, row[g])
			}
		}
	}
	if multi == 0 {
		t.Fatal("no frame spanned several cliques — the ordering check is vacuous")
	}
}
