// Package rencode implements the REGION encodings the server stores and
// serves, the ones Section 4.2 of the QBISM paper ends up with:
//
//   - naive:   8 bytes per run (<start, end> as two uint32s), Table 4's
//     h-naive row
//   - elias:   Elias γ-coded delta (run/gap length) stream — the
//     paper's chosen method, the wire's, and the zero Method
//   - k3-tree: octree of full/mixed bitmaps over curve-id space,
//     queryable in compressed form via ParseK3 (see k3.go)
//
// The rest of the paper's study — Elias δ, Golomb, varint, the octant
// lists and the entropy bound — is package zoo's, which keeps their
// method bytes; this package refuses those bytes as corrupt.
//
// Every codec round-trips exactly. Sizes are reported in bytes as stored.
package rencode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

// Method identifies a REGION encoding method.
type Method int

const (
	// Elias stores the delta stream with the Elias γ-code (the paper's
	// "elias" method). It is the zero Method: the codec of a REGION the
	// server sends.
	Elias Method = iota
	// Naive stores each run as two 4-byte integers (the paper's
	// "h-run-naive" at 8 bytes per run).
	Naive
	// K3Tree stores the region as an octree of per-level full/mixed
	// bitmaps over curve-id space (a k³-tree in the sense of Brisaboa
	// et al.). Unlike every other method it is queryable in place:
	// ParseK3 returns a probe that answers ContainsID, range emptiness
	// and coverage, and run intersection directly on the encoded bytes.
	// Its value is its method byte; 2 through 6 are package zoo's.
	K3Tree Method = 7
)

// Methods lists all supported methods in display order.
var Methods = []Method{Naive, Elias, K3Tree}

// String returns the method's conventional name.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case Elias:
		return "elias"
	case K3Tree:
		return "k3-tree"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// MethodOf peeks the method byte of an encoded REGION without decoding
// it. It reports ok=false on an empty buffer or a method this package
// does not read.
func MethodOf(data []byte) (Method, bool) {
	if len(data) == 0 {
		return 0, false
	}
	switch m := methodOfCode(data[0]); m {
	case Elias, Naive, K3Tree:
		return m, true
	}
	return 0, false
}

// code is m's method byte, the first byte of every encoding. The bytes
// predate Elias being the zero Method — Naive is 0 and Elias 1 on every
// stored field and on the wire — so code and methodOfCode swap those
// two and keep the rest.
func (m Method) code() byte {
	switch m {
	case Naive:
		return 0
	case Elias:
		return 1
	}
	return byte(m)
}

// methodOfCode inverts Method.code.
func methodOfCode(b byte) Method {
	switch b {
	case 0:
		return Naive
	case 1:
		return Elias
	}
	return Method(b)
}

// ErrCorrupt is wrapped by decode errors caused by malformed input.
var ErrCorrupt = errors.New("rencode: corrupt encoding")

// HeaderLen is the length of the header every method starts with:
//
//	byte 0:    method
//	byte 1:    curve kind
//	byte 2:    dim
//	byte 3:    bits per coordinate
//	bytes 4-11: element count (runs, deltas or voxels) big-endian
//
// followed by the method-specific payload. Package zoo's methods share
// it.
const HeaderLen = 12

// Encode serializes r with the given method.
func Encode(m Method, r *region.Region) ([]byte, error) { return AppendEncode(nil, m, r) }

// AppendEncode appends Encode(m, r) to dst and returns the extended
// slice. It grows dst at most once, so a dst with room for
// EncodedSize(m, r) more bytes takes the encoding in place. Naive and
// Elias write their payload straight into it; the k³-tree builds its
// bitmaps aside first. On an error dst is returned as it was given, and
// what lies past its length is unspecified.
func AppendEncode(dst []byte, m Method, r *region.Region) ([]byte, error) {
	c := r.Curve()
	runs := r.RunsView()
	var (
		size    int    // payload bytes
		payload []byte // the k³-tree's, built aside
		count   uint64
	)
	switch m {
	case Naive:
		if c.Dim()*c.Bits() > 32 {
			return dst, fmt.Errorf("rencode: naive encoding needs ids < 2^32, grid has %d id bits", c.Dim()*c.Bits())
		}
		count, size = uint64(len(runs)), 8*len(runs)
	case Elias:
		var nbits int
		count, nbits = gammaStream(r)
		size = (nbits + 7) / 8
	case K3Tree:
		count = r.NumVoxels()
		payload = encodeK3(r)
		size = len(payload)
	default:
		return dst, fmt.Errorf("rencode: unknown method %d", int(m))
	}

	out := slices.Grow(dst, HeaderLen+size)
	out = append(out, m.code(), byte(c.Kind()), byte(c.Dim()), byte(c.Bits()))
	out = binary.BigEndian.AppendUint64(out, count)
	switch m {
	case Naive:
		for _, run := range runs {
			out = binary.BigEndian.AppendUint32(out, uint32(run.Lo))
			out = binary.BigEndian.AppendUint32(out, uint32(run.Hi))
		}
	case Elias:
		w := bitio.NewWriter(out)
		r.EachDelta(func(d region.Delta) { writeGamma(w, d.Length) })
		out = w.Bytes()
	case K3Tree:
		out = append(out, payload...)
	}
	return out, nil
}

// gammaStream sizes r's γ-coded delta stream: how many deltas it holds
// and their total length in bits.
func gammaStream(r *region.Region) (count uint64, nbits int) {
	r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+gammaBits(d.Length) })
	return count, nbits
}

// Decode reconstructs a region from an Encode result. The curve is
// rebuilt from the header.
func Decode(data []byte) (*region.Region, error) {
	r := new(region.Region)
	if err := DecodeInto(r, data, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeInto is Decode into r, which it refills in place
// (region.Region.Refill) with a run list built in buf's backing array
// when buf has room for the runs — the run count for Naive, one more
// than half the delta count for Elias, K3Probe.RunsInto's bound for a
// k³-tree — and in a new slice otherwise: what K3Probe.RunsInto and
// AppendEncode are to their operations. A k³-tree still allocates its
// probe's level table. Decode is DecodeInto into a new Region with no
// buffer. Any other method byte — package zoo's among them — is refused
// as corrupt. On an error r is left as it was, and what buf holds is
// unspecified.
func DecodeInto(r *region.Region, data []byte, buf []region.Run) error {
	curve, count, body, err := Header(data)
	if err != nil {
		return err
	}
	switch m := methodOfCode(data[0]); m {
	case Naive:
		// Divide rather than multiply: 8*count overflows for a corrupt
		// count and would wave a giant allocation through the check.
		if count > uint64(len(body))/8 {
			return fmt.Errorf("%w: naive body truncated", ErrCorrupt)
		}
		runs := buf[:0]
		if uint64(cap(runs)) < count {
			runs = make([]region.Run, 0, count)
		}
		runs = runs[:count]
		for i := range runs {
			runs[i].Lo = uint64(binary.BigEndian.Uint32(body[8*i:]))
			runs[i].Hi = uint64(binary.BigEndian.Uint32(body[8*i+4:]))
		}
		return r.Refill(curve, runs)
	case Elias:
		var rd RunReader
		if err := rd.reset(curve, count, body); err != nil {
			return err
		}
		runs := buf[:0]
		if count > 0 && uint64(cap(runs)) < count/2+1 {
			runs = make([]region.Run, 0, count/2+1)
		}
		for {
			first, last, ok := rd.Next()
			if !ok {
				break
			}
			runs = append(runs, region.Run{Lo: first, Hi: last})
		}
		if rd.err != nil {
			return rd.err
		}
		return r.Refill(curve, runs)
	case K3Tree:
		var p K3Probe
		if err := p.parseBody(curve, count, body); err != nil {
			return err
		}
		return r.Refill(curve, p.RunsInto(buf))
	default:
		return fmt.Errorf("%w: unknown method %d", ErrCorrupt, int(m))
	}
}

// Header splits an encoded REGION into its curve, element count and
// method-specific body.
func Header(data []byte) (sfc.Curve, uint64, []byte, error) {
	if len(data) < HeaderLen {
		return nil, 0, nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	curve, err := sfc.New(sfc.Kind(data[1]), int(data[2]), int(data[3]))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%w: bad curve header: %v", ErrCorrupt, err)
	}
	return curve, binary.BigEndian.Uint64(data[4:12]), data[HeaderLen:], nil
}

// RunReader streams the runs of an Elias γ-coded REGION in increasing
// order, one delta at a time, so a reply can be walked straight off the
// wire with no run list built. Its runs lie on its curve, disjoint and
// never adjacent (every gap covers a position). DecodeInto reads a γ
// stream through one, and so makes every check Next makes. The zero
// RunReader has no runs; Reset points it at an encoding.
type RunReader struct {
	curve  sfc.Curve
	n      uint64 // the curve's length
	br     bitio.Reader
	count  uint64 // deltas in the stream
	i      uint64 // deltas read
	pos    uint64 // where the next delta starts
	inside bool   // whether the next delta is a run
	err    error
}

// Reset points rd at the encoded REGION data. It fails, wrapping
// ErrCorrupt, on a malformed header or any method but Elias.
func (rd *RunReader) Reset(data []byte) error {
	curve, count, body, err := Header(data)
	if err != nil {
		return err
	}
	if m, ok := MethodOf(data); !ok || m != Elias {
		return fmt.Errorf("%w: method byte %d is not a γ stream", ErrCorrupt, data[0])
	}
	return rd.reset(curve, count, body)
}

// reset is Reset past the header: count γ-coded deltas in body.
//
// The first delta is a gap unless the region starts at position 0 — the
// encoder writes the leading gap only when nonzero, so the decoder must
// know which comes first. The deltas are stored exactly as
// region.Deltas() returns them, which ends with a run, so with count
// elements the first is a gap iff count is even.
func (rd *RunReader) reset(curve sfc.Curve, count uint64, body []byte) error {
	// Every delta costs at least one encoded bit, so a count beyond the
	// payload's bit length is corrupt. Checking here (not just against
	// curve.Length() below) matters on huge curves, where a forged
	// 60-bit count would pass the positions bound and drive a caller's
	// run preallocation out of range.
	if count > uint64(len(body))*8 {
		return fmt.Errorf("%w: %d deltas in a %d-byte body", ErrCorrupt, count, len(body))
	}
	// Every delta covers at least one position, so more deltas than the
	// curve has positions is corrupt.
	n := curve.Length()
	if count > n {
		return fmt.Errorf("%w: %d deltas on a %d-position curve", ErrCorrupt, count, n)
	}
	*rd = RunReader{curve: curve, n: n, br: *bitio.NewReader(body, -1), count: count, inside: count%2 == 1}
	return nil
}

// Curve returns the curve of the REGION rd reads.
func (rd *RunReader) Curve() sfc.Curve { return rd.curve }

// NumRuns returns the number of runs the header promises: the stream
// ends with a run, so half its deltas, rounded up.
func (rd *RunReader) NumRuns() int { return int((rd.count + 1) / 2) }

// Next decodes the next run, [first, last]. ok is false past the last
// run, and from the first corrupt delta on, which Err then reports.
func (rd *RunReader) Next() (first, last uint64, ok bool) {
	for rd.i < rd.count {
		length, err := rd.br.ReadGamma()
		switch {
		case err != nil:
			return rd.fail(fmt.Errorf("%w: delta %d: %v", ErrCorrupt, rd.i, err))
		case length == 0:
			return rd.fail(fmt.Errorf("%w: zero-length delta", ErrCorrupt))
		case length > rd.n-rd.pos:
			return rd.fail(fmt.Errorf("%w: deltas overflow curve", ErrCorrupt))
		}
		rd.i++
		first, rd.pos = rd.pos, rd.pos+length
		if rd.inside = !rd.inside; !rd.inside {
			return first, rd.pos - 1, true
		}
	}
	return 0, 0, false
}

// fail stops rd at err.
func (rd *RunReader) fail(err error) (first, last uint64, ok bool) {
	rd.err, rd.count = err, rd.i
	return 0, 0, false
}

// Err returns the error that stopped rd, if any.
func (rd *RunReader) Err() error { return rd.err }

// EncodedSize returns the size in bytes Encode would produce, without
// materializing the buffer (header included) or anything else: it
// allocates nothing.
func EncodedSize(m Method, r *region.Region) (int, error) {
	switch m {
	case Naive:
		return HeaderLen + 8*r.NumRuns(), nil
	case Elias:
		_, nbits := gammaStream(r)
		return HeaderLen + (nbits+7)/8, nil
	case K3Tree:
		return HeaderLen + k3PayloadSize(r), nil
	default:
		return 0, fmt.Errorf("rencode: unknown method %d", int(m))
	}
}
