package stream

import (
	"bytes"
	"io"
	"math"
	"testing"

	"ken/internal/wire"
)

// FuzzReplicaApply feeds arbitrary bytes, read as a length-prefixed frame
// stream through ReadFrameBuf, into Replica.ApplyObserved — the reader
// path kensinkd serves every tenant with. Nothing may panic, and a frame
// the reader or the replica refuses must leave the replica's answer
// (estimates, step and heartbeat count) bit-for-bit unchanged: failures reject before
// they mutate. Frames after a refused apply keep being offered, so a
// refusal that leaked state into the replica also shows up downstream.
func FuzzReplicaApply(f *testing.F) {
	cfg, test := testConfig(f)
	cfg.HeartbeatEvery = 4 // source-only: seeds carry heartbeat frames
	src, err := NewSource(cfg)
	if err != nil {
		f.Fatal(err)
	}

	// stream encodes frames as ReadFrameBuf expects them.
	stream := func(frames ...wire.Frame) []byte {
		var buf bytes.Buffer
		for _, fr := range frames {
			if err := WriteFrame(&buf, fr, src.Resolution()); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	var valid []wire.Frame
	for _, row := range test[:12] {
		fr, err := src.Collect(row)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, fr)
	}
	f.Add(stream(valid...))
	f.Add(stream(valid[:3]...))
	// A gap, a replayed step, and an out-of-range attribute, each
	// followed by the frame the replica expects next.
	f.Add(stream(valid[0], valid[2], valid[1]))
	f.Add(stream(valid[0], valid[0], valid[1]))
	f.Add(stream(valid[0], wire.Frame{Step: 1, Attrs: []int{0, 99}, Values: []float64{20, 1}}, valid[1]))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, wire.Magic})

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(data)
		var body []byte
		var st ApplyStats
		for {
			before := rep.Answer()
			var fr wire.Frame
			fr, body, err = ReadFrameBuf(rd, rep.Resolution(), body)
			if err == io.EOF {
				return
			}
			if err != nil {
				// The stream is out of frame sync; a reader stops here.
				sameAnswer(t, "read error", before, rep.Answer())
				return
			}
			if err := rep.ApplyObserved(fr, &st); err != nil {
				sameAnswer(t, err.Error(), before, rep.Answer())
			}
		}
	})
}

// sameAnswer fails unless two answers agree bit for bit.
func sameAnswer(t *testing.T, why string, want, got Answer) {
	t.Helper()
	if got.Step != want.Step || got.Heartbeats != want.Heartbeats || len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("refused frame (%s) moved the replica: step %d→%d, heartbeats %d→%d",
			why, want.Step, got.Step, want.Heartbeats, got.Heartbeats)
	}
	for i := range got.Estimates {
		if math.Float64bits(got.Estimates[i]) != math.Float64bits(want.Estimates[i]) {
			t.Fatalf("refused frame (%s) moved attribute %d: %v → %v",
				why, i, want.Estimates[i], got.Estimates[i])
		}
	}
}
