// Package zoo keeps the REGION encodings of the paper's Section 4.2
// study that the server neither stores nor serves — Elias δ, Golomb/Rice
// and varint delta streams, oblong-octant and octant lists — with the
// octant decompositions and the entropy bound (EQ 2). Encode, Decode and
// EncodedSize cover all eight methods, passing γ, naive and the k³-tree
// to rencode, whose header and method bytes every method shares. The
// server refuses the zoo's bytes as corrupt (rencode.ErrCorrupt).
package zoo

import (
	"encoding/binary"
	"fmt"
	"slices"

	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sfc"
)

// Method identifies a REGION encoding method of the study. Elias, Naive
// and K3Tree are rencode's, with rencode's values; each of the others is
// its own method byte.
type Method int

const (
	Elias = Method(rencode.Elias)
	Naive = Method(rencode.Naive)
	// EliasDelta stores the delta stream with the Elias δ-code.
	EliasDelta Method = 2
	// Golomb stores the delta stream with a Rice code (parameter chosen
	// per region and stored after the header).
	Golomb Method = 3
	// Varint stores the delta stream as LEB128 varints.
	Varint Method = 4
	// OblongOctant stores 4 bytes per oblong octant.
	OblongOctant Method = 5
	// Octant stores 4 bytes per regular octant.
	Octant Method = 6
	// K3Tree is rencode's queryable octree.
	K3Tree = Method(rencode.K3Tree)
)

// Methods lists every method of the study in display order.
var Methods = []Method{Naive, Elias, EliasDelta, Golomb, Varint, OblongOctant, Octant, K3Tree}

var names = [...]string{EliasDelta: "elias-delta", Golomb: "golomb", Varint: "varint", OblongOctant: "oblong-octant", Octant: "octant"}

// String returns the method's conventional name.
func (m Method) String() string {
	if m.own() {
		return names[m]
	}
	return rencode.Method(m).String()
}

// own reports whether m is one of the zoo's own methods rather than one
// rencode serves.
func (m Method) own() bool { return m >= EliasDelta && m <= Octant }

// MethodOf peeks the method byte of an encoded REGION without decoding
// it. It reports ok=false on an empty buffer or an undeclared method.
func MethodOf(data []byte) (Method, bool) {
	if len(data) > 0 && Method(data[0]).own() {
		return Method(data[0]), true
	}
	m, ok := rencode.MethodOf(data)
	return Method(m), ok
}

// Encode serializes r with the given method.
func Encode(m Method, r *region.Region) ([]byte, error) { return AppendEncode(nil, m, r) }

// AppendEncode appends Encode(m, r) to dst and returns the extended
// slice, as rencode.AppendEncode does: it grows dst at most once, so a
// dst with room for EncodedSize(m, r) more bytes takes the encoding in
// place.
func AppendEncode(dst []byte, m Method, r *region.Region) ([]byte, error) {
	if !m.own() {
		return rencode.AppendEncode(dst, rencode.Method(m), r)
	}
	c := r.Curve()
	var (
		octs  []Block
		count uint64
		size  int // payload bytes
		riceK uint8
	)
	switch m {
	case OblongOctant, Octant:
		octs = octants(r, m)
		count, size = uint64(len(octs)), 4*len(octs)
	default:
		riceK, count, size = deltaStream(m, r)
	}
	out := slices.Grow(dst, rencode.HeaderLen+size)
	out = append(out, byte(m), byte(c.Kind()), byte(c.Dim()), byte(c.Bits()))
	out = binary.BigEndian.AppendUint64(out, count)
	for _, o := range octs {
		v, err := PackOctant(o)
		if err != nil {
			return dst, err
		}
		out = binary.BigEndian.AppendUint32(out, v)
	}
	if m == Golomb {
		out = append(out, riceK)
	}
	// One loop per code, so that each delta is one direct call.
	w := bitio.NewWriter(out)
	switch m {
	case EliasDelta:
		r.EachDelta(func(d region.Delta) { writeDelta(w, d.Length) })
	case Varint:
		r.EachDelta(func(d region.Delta) { writeVarint(w, d.Length) })
	case Golomb:
		r.EachDelta(func(d region.Delta) { writeRice(w, d.Length, riceK) })
	}
	return w.Bytes(), nil
}

// deltaStream sizes r's delta stream under the delta-stream method m:
// the Rice parameter chosen for Golomb, how many deltas the stream holds
// and the payload's bytes, Golomb's parameter byte included.
func deltaStream(m Method, r *region.Region) (riceK uint8, count uint64, size int) {
	var nbits int
	switch m {
	case EliasDelta:
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+deltaBits(d.Length) })
	case Varint:
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+varintBits(d.Length) })
	case Golomb:
		riceK = riceParam(r)
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+riceBits(d.Length, riceK) })
		size = 1
	}
	return riceK, count, size + (nbits+7)/8
}

// EncodedSize returns the size in bytes Encode would produce (header
// included), without materializing the buffer.
func EncodedSize(m Method, r *region.Region) (int, error) {
	switch m {
	case OblongOctant, Octant:
		return rencode.HeaderLen + 4*len(octants(r, m)), nil
	case EliasDelta, Varint, Golomb:
		_, _, size := deltaStream(m, r)
		return rencode.HeaderLen + size, nil
	}
	return rencode.EncodedSize(rencode.Method(m), r)
}

// Decode reconstructs a region from an Encode result of any method. The
// curve is rebuilt from the header.
func Decode(data []byte) (*region.Region, error) {
	m, ok := MethodOf(data)
	if !ok || !m.own() {
		return rencode.Decode(data)
	}
	curve, count, body, err := rencode.Header(data)
	if err != nil {
		return nil, err
	}
	if m == OblongOctant || m == Octant {
		if count > uint64(len(body))/4 {
			return nil, fmt.Errorf("%w: octant body truncated", rencode.ErrCorrupt)
		}
		octs := make([]Block, count)
		for i := range octs {
			octs[i] = UnpackOctant(binary.BigEndian.Uint32(body[4*i:]))
		}
		return FromOctantList(curve, octs)
	}
	runs, err := decodeDeltas(m, curve, count, body)
	if err != nil {
		return nil, err
	}
	r := new(region.Region)
	if err := r.Refill(curve, runs); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeDeltas reads count deltas of the delta-stream method m from
// body into the runs they describe — a run last, so the first is a gap
// iff count is even — with rencode.RunReader's checks. Every delta reads
// at least one bit and covers at least one position, so a forged count
// fails at the end of the body or the curve.
func decodeDeltas(m Method, curve sfc.Curve, count uint64, body []byte) ([]region.Run, error) {
	var riceK uint8
	if m == Golomb {
		if len(body) < 1 {
			return nil, fmt.Errorf("%w: missing rice parameter", rencode.ErrCorrupt)
		}
		if riceK, body = body[0], body[1:]; riceK > 63 {
			return nil, fmt.Errorf("%w: rice parameter %d", rencode.ErrCorrupt, riceK)
		}
	}
	br := bitio.NewReader(body, -1)
	var runs []region.Run
	n, pos, inside := curve.Length(), uint64(0), count%2 == 1
	for i := uint64(0); i < count; i++ {
		var length uint64
		var err error
		switch m {
		case EliasDelta:
			length, err = readDelta(br)
		case Varint:
			length, err = readVarint(br)
		default:
			length, err = readRice(br, riceK)
		}
		switch {
		case err != nil:
			return nil, fmt.Errorf("%w: delta %d: %v", rencode.ErrCorrupt, i, err)
		case length == 0:
			return nil, fmt.Errorf("%w: zero-length delta", rencode.ErrCorrupt)
		case length > n-pos:
			return nil, fmt.Errorf("%w: deltas overflow curve", rencode.ErrCorrupt)
		}
		if inside = !inside; !inside {
			runs = append(runs, region.Run{Lo: pos, Hi: pos + length - 1})
		}
		pos += length
	}
	return runs, nil
}
