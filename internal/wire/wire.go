// Package wire defines the compact binary frame format Ken reports travel
// in between a source process and the base-station sink (see
// internal/stream for the transport). One frame carries one time step's
// report set.
//
// Layout (all integers varint-encoded, little-endian groups):
//
//	magic      byte 0xK3 (0xC3)
//	step       uvarint — the sampling step the reports belong to
//	count      uvarint — number of (attr, value) pairs
//	attrs      delta-encoded uvarints (attr indices ascending)
//	values     varint quantized readings (value / resolution, zigzag)
//
// Values are quantized to a caller-chosen resolution. Ken's guarantee
// composes cleanly: quantizing to resolution r adds at most r/2 error, so a
// deployment that needs ±ε end-to-end runs the protocol at ε − r/2. With
// the default resolution of ε/100 the slack is negligible.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Magic is the frame marker byte.
const Magic = 0xC3

// Frame is one step's report set.
type Frame struct {
	Step    uint64
	Attrs   []int
	Values  []float64
	Special Kind
}

// Kind distinguishes regular reports from control frames.
type Kind byte

const (
	// KindReport is a normal report set (possibly empty).
	KindReport Kind = 0
	// KindHeartbeat marks a full-state resynchronisation frame (§6).
	KindHeartbeat Kind = 1
)

// ErrCorrupt is returned (wrapped) when a frame fails to parse.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Encode serialises the frame with the given value resolution. Attributes
// are sorted ascending; attrs and values must have equal length.
func Encode(f Frame, resolution float64) ([]byte, error) {
	if len(f.Attrs) != len(f.Values) {
		return nil, fmt.Errorf("wire: %d attrs, %d values", len(f.Attrs), len(f.Values))
	}
	if resolution <= 0 {
		return nil, fmt.Errorf("wire: non-positive resolution %v", resolution)
	}
	type pair struct {
		attr int
		val  float64
	}
	pairs := make([]pair, len(f.Attrs))
	for i := range f.Attrs {
		if f.Attrs[i] < 0 {
			return nil, fmt.Errorf("wire: negative attribute %d", f.Attrs[i])
		}
		if math.IsNaN(f.Values[i]) || math.IsInf(f.Values[i], 0) {
			return nil, fmt.Errorf("wire: non-finite value %v", f.Values[i])
		}
		pairs[i] = pair{f.Attrs[i], f.Values[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].attr < pairs[b].attr })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].attr == pairs[i-1].attr {
			return nil, fmt.Errorf("wire: duplicate attribute %d", pairs[i].attr)
		}
	}

	buf := make([]byte, 0, 4+3*len(pairs))
	buf = append(buf, Magic, byte(f.Special))
	buf = binary.AppendUvarint(buf, f.Step)
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	prev := 0
	for _, p := range pairs {
		buf = binary.AppendUvarint(buf, uint64(p.attr-prev))
		prev = p.attr
	}
	for _, p := range pairs {
		q := int64(math.Round(p.val / resolution))
		buf = binary.AppendVarint(buf, q)
	}
	return buf, nil
}

// Decode parses a frame encoded with the same resolution.
func Decode(buf []byte, resolution float64) (Frame, error) {
	var f Frame
	if err := DecodeInto(&f, buf, resolution); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// DecodeInto parses a frame encoded with the same resolution into f,
// reusing f's Attrs and Values backing arrays when their capacity suffices
// (they come back length-0 rather than nil for empty frames). A frame
// whose pairs fit the existing capacity decodes without allocating. On
// error f is left in an unspecified state.
//
//ken:hotpath decodes into the caller's frame, reusing its backing arrays
func DecodeInto(f *Frame, buf []byte, resolution float64) error {
	if resolution <= 0 {
		return fmt.Errorf("wire: non-positive resolution %v", resolution)
	}
	if len(buf) < 2 || buf[0] != Magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	kind := Kind(buf[1])
	if kind != KindReport && kind != KindHeartbeat {
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	rest := buf[2:]
	step, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: step", ErrCorrupt)
	}
	rest = rest[n:]
	count64, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: count", ErrCorrupt)
	}
	rest = rest[n:]
	if count64 > 1<<20 {
		return fmt.Errorf("%w: implausible count %d", ErrCorrupt, count64)
	}
	count := int(count64)
	f.Step = step
	f.Special = kind
	attrs := f.Attrs[:0]
	values := f.Values[:0]
	f.Attrs = attrs
	f.Values = values
	if count == 0 {
		if len(rest) != 0 {
			return fmt.Errorf("%w: trailing bytes", ErrCorrupt)
		}
		return nil
	}
	prev := 0
	for i := 0; i < count; i++ {
		d, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: attr %d", ErrCorrupt, i)
		}
		// Attributes are strictly ascending: every delta after the first
		// must be at least 1 (a zero delta would be a duplicate).
		if i > 0 && d == 0 {
			return fmt.Errorf("%w: duplicate attribute delta", ErrCorrupt)
		}
		// A delta past the int range would wrap prev back onto (or below)
		// an attribute already decoded.
		if d > uint64(math.MaxInt-prev) {
			return fmt.Errorf("%w: attribute delta overflows", ErrCorrupt)
		}
		rest = rest[n:]
		prev += int(d)
		attrs = append(attrs, prev)
	}
	for i := 0; i < count; i++ {
		q, n := binary.Varint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: value %d", ErrCorrupt, i)
		}
		rest = rest[n:]
		values = append(values, float64(q)*resolution)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	f.Attrs = attrs
	f.Values = values
	return nil
}
