// Package rencode implements the on-disk REGION encodings studied in
// Section 4.2 of the QBISM paper and the entropy lower bound used as
// their yardstick (EQ 2).
//
// Encodings:
//
//   - naive:        8 bytes per run (<start, end> as two uint32s)
//   - elias:        Elias γ-coded delta (run/gap length) stream — the
//     paper's chosen method, and the zero Method
//   - eliasdelta:   Elias δ-coded delta stream (extension; better for
//     heavy-tailed lengths)
//   - golomb:       Golomb/Rice-coded delta stream (the geometric-
//     distribution method the paper rules out, kept as a baseline)
//   - varint:       byte-aligned unsigned LEB128 delta stream
//   - oblong:       4 bytes per oblong octant (<id, rank> packed)
//   - octant:       4 bytes per regular octant (<id, rank> packed)
//   - k3-tree:      octree of full/mixed bitmaps over curve-id space,
//     queryable in compressed form via ParseK3 (see k3.go)
//
// Every codec round-trips exactly. Sizes are reported in bytes as stored.
package rencode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
	// EliasDelta stores the delta stream with the Elias δ-code.
	EliasDelta
	// Golomb stores the delta stream with a Rice code (parameter chosen
	// per region and stored in the header).
	Golomb
	// Varint stores the delta stream as LEB128 varints.
	Varint
	// OblongOctant stores 4 bytes per oblong octant.
	OblongOctant
	// Octant stores 4 bytes per regular octant.
	Octant
	// K3Tree stores the region as an octree of per-level full/mixed
	// bitmaps over curve-id space (a k³-tree in the sense of Brisaboa
	// et al.). Unlike every other method it is queryable in place:
	// ParseK3 returns a probe that answers ContainsID, range emptiness
	// and coverage, and run intersection directly on the encoded bytes.
	K3Tree

	// methodCount is a sentinel: it must stay last in this block so the
	// exhaustiveness test can iterate every declared method. Adding a
	// method above without extending Methods and String fails
	// TestMethodsExhaustive.
	methodCount
)

// Methods lists all supported methods in display order.
var Methods = []Method{Naive, Elias, EliasDelta, Golomb, Varint, OblongOctant, Octant, K3Tree}

// String returns the method's conventional name.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case Elias:
		return "elias"
	case EliasDelta:
		return "elias-delta"
	case Golomb:
		return "golomb"
	case Varint:
		return "varint"
	case OblongOctant:
		return "oblong-octant"
	case Octant:
		return "octant"
	case K3Tree:
		return "k3-tree"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// MethodOf peeks the method byte of an encoded REGION without decoding
// it. It reports ok=false on an empty buffer or an undeclared method.
func MethodOf(data []byte) (Method, bool) {
	if len(data) == 0 {
		return 0, false
	}
	m := methodOfCode(data[0])
	if m < 0 || m >= methodCount {
		return 0, false
	}
	return m, true
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

// header layout for all methods:
//
//	byte 0:    method
//	byte 1:    curve kind
//	byte 2:    dim
//	byte 3:    bits per coordinate
//	bytes 4-11: element count (runs, octants, or deltas) big-endian
//	[golomb only] byte 12: rice parameter k
//
// followed by the method-specific payload.
const headerLen = 12

// Encode serializes r with the given method.
func Encode(m Method, r *region.Region) ([]byte, error) { return AppendEncode(nil, m, r) }

// AppendEncode appends Encode(m, r) to dst and returns the extended
// slice. It grows dst at most once, so a dst with room for
// EncodedSize(m, r) more bytes takes the encoding in place. Every method
// but the k³-tree writes its payload straight into it; the k³-tree
// builds its bitmaps aside first. On an error dst is returned as it was
// given, and what lies past its length is unspecified.
func AppendEncode(dst []byte, m Method, r *region.Region) ([]byte, error) {
	c := r.Curve()
	runs := r.RunsView()
	var (
		size    int    // payload bytes
		payload []byte // the k³-tree's, built aside
		octs    []region.Octant
		count   uint64
		riceK   uint8
	)
	switch m {
	case Naive:
		if c.Dim()*c.Bits() > 32 {
			return dst, fmt.Errorf("rencode: naive encoding needs ids < 2^32, grid has %d id bits", c.Dim()*c.Bits())
		}
		count, size = uint64(len(runs)), 8*len(runs)
	case Elias, EliasDelta, Varint, Golomb:
		var nbits int
		riceK, count, nbits = deltaStream(m, r)
		size = (nbits + 7) / 8
	case OblongOctant, Octant:
		if m == OblongOctant {
			octs = r.OblongOctants()
		} else {
			octs = r.Octants()
		}
		count, size = uint64(len(octs)), 4*len(octs)
	case K3Tree:
		count = r.NumVoxels()
		payload = encodeK3(r)
		size = len(payload)
	default:
		return dst, fmt.Errorf("rencode: unknown method %d", int(m))
	}

	hlen := headerLen
	if m == Golomb {
		hlen++
	}
	out := slices.Grow(dst, hlen+size)
	out = append(out, m.code(), byte(c.Kind()), byte(c.Dim()), byte(c.Bits()))
	out = binary.BigEndian.AppendUint64(out, count)
	switch m {
	case Naive:
		for _, run := range runs {
			out = binary.BigEndian.AppendUint32(out, uint32(run.Lo))
			out = binary.BigEndian.AppendUint32(out, uint32(run.Hi))
		}
	case Elias, EliasDelta, Varint, Golomb:
		if m == Golomb {
			out = append(out, riceK)
		}
		// One loop per code, so that each delta is one direct call.
		w := bitio.NewWriter(out)
		switch m {
		case Elias:
			r.EachDelta(func(d region.Delta) { writeGamma(w, d.Length) })
		case EliasDelta:
			r.EachDelta(func(d region.Delta) { writeDelta(w, d.Length) })
		case Varint:
			r.EachDelta(func(d region.Delta) { writeVarint(w, d.Length) })
		case Golomb:
			r.EachDelta(func(d region.Delta) { writeRice(w, d.Length, riceK) })
		}
		out = w.Bytes()
	case OblongOctant, Octant:
		for _, o := range octs {
			v, err := region.PackOctant(o)
			if err != nil {
				return dst, fmt.Errorf("rencode: %v", err)
			}
			out = binary.BigEndian.AppendUint32(out, v)
		}
	case K3Tree:
		out = append(out, payload...)
	}
	return out, nil
}

// deltaStream sizes r's delta stream under the delta-stream method m:
// the Rice parameter chosen for Golomb, how many deltas the stream holds
// and their total length in bits.
func deltaStream(m Method, r *region.Region) (riceK uint8, count uint64, nbits int) {
	switch m {
	case Elias:
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+gammaBits(d.Length) })
	case EliasDelta:
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+deltaBits(d.Length) })
	case Varint:
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+varintBits(d.Length) })
	case Golomb:
		riceK = riceParam(r)
		r.EachDelta(func(d region.Delta) { count, nbits = count+1, nbits+riceBits(d.Length, riceK) })
	}
	return riceK, count, nbits
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
// than half the delta count for the delta codecs, K3Probe.RunsInto's
// bound for a k³-tree — and in a new slice otherwise: what
// K3Probe.RunsInto and AppendEncode are to their operations. The
// octant methods still build a new list, and a k³-tree still allocates
// its probe's level table. Decode is DecodeInto into a new Region with no
// buffer. On an error r is left as it was, and what buf holds is
// unspecified.
func DecodeInto(r *region.Region, data []byte, buf []region.Run) error {
	curve, count, body, err := header(data)
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
	case Elias, EliasDelta, Varint, Golomb:
		var rd RunReader
		if err := rd.reset(curve, count, body, m); err != nil {
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
	case OblongOctant, Octant:
		if count > uint64(len(body))/4 {
			return fmt.Errorf("%w: octant body truncated", ErrCorrupt)
		}
		octs := make([]region.Octant, count)
		for i := range octs {
			octs[i] = region.UnpackOctant(binary.BigEndian.Uint32(body[4*i:]))
		}
		o, err := region.FromOctantList(curve, octs)
		if err != nil {
			return err
		}
		return r.Refill(curve, o.RunsView())
	case K3Tree:
		var p K3Probe
		if err := p.parseBody(curve, count, body, false); err != nil {
			return err
		}
		return r.Refill(curve, p.RunsInto(buf))
	default:
		return fmt.Errorf("%w: unknown method %d", ErrCorrupt, int(m))
	}
}

// header splits an encoded REGION into its curve, element count and
// method-specific body.
func header(data []byte) (sfc.Curve, uint64, []byte, error) {
	if len(data) < headerLen {
		return nil, 0, nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	curve, err := sfc.New(sfc.Kind(data[1]), int(data[2]), int(data[3]))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%w: bad curve header: %v", ErrCorrupt, err)
	}
	return curve, binary.BigEndian.Uint64(data[4:12]), data[headerLen:], nil
}

// RunReader streams the runs of a delta-coded REGION — Elias γ or δ,
// Golomb or varint, the methods whose Streams is true — in increasing
// order, one delta at a time, so a reply can be walked straight off the
// wire with no run list built. Its runs lie on its curve, disjoint and
// never adjacent (every gap covers a position). DecodeInto reads a
// delta stream through one, and so makes every check Next makes. The
// zero RunReader has no runs; Reset points it at an encoding.
type RunReader struct {
	curve  sfc.Curve
	n      uint64 // the curve's length
	m      Method
	riceK  uint8
	br     bitio.Reader
	count  uint64 // deltas in the stream
	i      uint64 // deltas read
	pos    uint64 // where the next delta starts
	inside bool   // whether the next delta is a run
	err    error
}

// Streams reports whether m stores a REGION as a delta stream, which a
// RunReader reads.
func (m Method) Streams() bool {
	switch m {
	case Elias, EliasDelta, Varint, Golomb:
		return true
	}
	return false
}

// Reset points rd at the encoded REGION data. It fails, wrapping
// ErrCorrupt, on a malformed header or an undeclared method, and on a
// method that is not a delta stream with an error of its own.
func (rd *RunReader) Reset(data []byte) error {
	curve, count, body, err := header(data)
	if err != nil {
		return err
	}
	m, ok := MethodOf(data)
	switch {
	case !ok:
		return fmt.Errorf("%w: unknown method %d", ErrCorrupt, int(methodOfCode(data[0])))
	case !m.Streams():
		return fmt.Errorf("rencode: a %v REGION is not a delta stream", m)
	}
	return rd.reset(curve, count, body, m)
}

// reset is Reset past the header: count deltas of method m in body.
//
// The first delta is a gap unless the region starts at position 0 — the
// encoder writes the leading gap only when nonzero, so the decoder must
// know which comes first. The deltas are stored exactly as
// region.Deltas() returns them, which ends with a run, so with count
// elements the first is a gap iff count is even.
func (rd *RunReader) reset(curve sfc.Curve, count uint64, body []byte, m Method) error {
	var riceK uint8
	if m == Golomb {
		if len(body) < 1 {
			return fmt.Errorf("%w: missing rice parameter", ErrCorrupt)
		}
		if riceK, body = body[0], body[1:]; riceK > 63 {
			return fmt.Errorf("%w: rice parameter %d", ErrCorrupt, riceK)
		}
	}
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
	*rd = RunReader{curve: curve, n: n, m: m, riceK: riceK, br: *bitio.NewReader(body, -1), count: count, inside: count%2 == 1}
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
		// The code is picked per delta here rather than behind a call or
		// a closure: the branch always goes the same way, and each delta
		// is one direct call.
		var length uint64
		var err error
		switch rd.m {
		case Elias:
			length, err = rd.br.ReadGamma()
		case EliasDelta:
			length, err = readDelta(&rd.br)
		case Varint:
			length, err = readVarint(&rd.br)
		default:
			length, err = readRice(&rd.br, rd.riceK)
		}
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
		return headerLen + 8*r.NumRuns(), nil
	case OblongOctant:
		return headerLen + 4*r.NumOblongOctants(), nil
	case Octant:
		return headerLen + 4*r.NumOctants(), nil
	case Elias, EliasDelta, Varint, Golomb:
		_, _, nbits := deltaStream(m, r)
		n := headerLen + (nbits+7)/8
		if m == Golomb {
			n++
		}
		return n, nil
	case K3Tree:
		return headerLen + k3PayloadSize(r), nil
	default:
		return 0, fmt.Errorf("rencode: unknown method %d", int(m))
	}
}

// riceParam picks the Rice parameter k ≈ log2(mean delta length) for
// r's deltas.
func riceParam(r *region.Region) uint8 {
	var total, n uint64
	r.EachDelta(func(d region.Delta) { total, n = total+d.Length, n+1 })
	if n == 0 {
		return 0
	}
	mean := total / n
	if mean < 1 {
		mean = 1
	}
	k := uint8(bits.Len64(mean) - 1)
	if k > 32 {
		k = 32
	}
	return k
}
