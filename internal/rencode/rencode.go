// Package rencode implements the on-disk REGION encodings studied in
// Section 4.2 of the QBISM paper and the entropy lower bound used as
// their yardstick (EQ 2).
//
// Encodings:
//
//   - naive:        8 bytes per run (<start, end> as two uint32s)
//   - elias:        Elias γ-coded delta (run/gap length) stream — the
//     paper's chosen method
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
	// Naive stores each run as two 4-byte integers (the paper's
	// "h-run-naive" at 8 bytes per run).
	Naive Method = iota
	// Elias stores the delta stream with the Elias γ-code (the paper's
	// "elias" method).
	Elias
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

// MethodByName inverts String for declared methods ("elias" → Elias).
func MethodByName(name string) (Method, bool) {
	for _, m := range Methods {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// MethodOf peeks the method byte of an encoded REGION without decoding
// it. It reports ok=false on an empty buffer or an undeclared method.
func MethodOf(data []byte) (Method, bool) {
	if len(data) == 0 {
		return 0, false
	}
	m := Method(data[0])
	if m < 0 || m >= methodCount {
		return 0, false
	}
	return m, true
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
// EncodedSize(m, r) more bytes takes the encoding in place. Naive and
// the octant methods write their payload straight into it; the bit
// codecs and the k³-tree build theirs aside first, as Encode always
// did. On an error dst is
// returned as it was given, and what lies past its length is
// unspecified.
func AppendEncode(dst []byte, m Method, r *region.Region) ([]byte, error) {
	c := r.Curve()
	runs := r.RunsView()
	var (
		size    int    // payload bytes written into dst directly (Naive, octants)
		payload []byte // payload built aside (the bit codecs, K3Tree)
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
		if m == Golomb {
			riceK = riceParam(r)
		}
		var w bitio.Writer
		r.EachDelta(func(d region.Delta) {
			count++
			switch m {
			case Elias:
				writeGamma(&w, d.Length)
			case EliasDelta:
				writeDelta(&w, d.Length)
			case Varint:
				writeVarint(&w, d.Length)
			case Golomb:
				writeRice(&w, d.Length, riceK)
			}
		})
		payload = w.Bytes()
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
	default:
		return dst, fmt.Errorf("rencode: unknown method %d", int(m))
	}

	hlen := headerLen
	if m == Golomb {
		hlen++
	}
	out := slices.Grow(dst, hlen+size+len(payload))
	out = append(out, byte(m), byte(c.Kind()), byte(c.Dim()), byte(c.Bits()))
	out = binary.BigEndian.AppendUint64(out, count)
	if m == Golomb {
		out = append(out, riceK)
	}
	switch m {
	case Naive:
		for _, run := range runs {
			out = binary.BigEndian.AppendUint32(out, uint32(run.Lo))
			out = binary.BigEndian.AppendUint32(out, uint32(run.Hi))
		}
	case OblongOctant, Octant:
		for _, o := range octs {
			v, err := region.PackOctant(o)
			if err != nil {
				return dst, fmt.Errorf("rencode: %v", err)
			}
			out = binary.BigEndian.AppendUint32(out, v)
		}
	default:
		out = append(out, payload...)
	}
	return out, nil
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
// when buf has room for MaxRuns(data) runs and in a new slice otherwise —
// what K3Probe.RunsInto and AppendEncode are to their operations. The
// octant methods still build a new list, and a k³-tree still allocates
// its probe's level table. Decode is DecodeInto into a new Region with no
// buffer. On an error r is left as it was, and what buf holds is
// unspecified.
func DecodeInto(r *region.Region, data []byte, buf []region.Run) error {
	curve, count, body, err := header(data)
	if err != nil {
		return err
	}
	switch m := Method(data[0]); m {
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
	case Elias, EliasDelta, Varint:
		// Every delta costs at least one encoded bit, so a count beyond
		// the payload's bit length is corrupt. Checking here (not just
		// against curve.Length() in decodeDeltas) matters on huge
		// curves, where a forged 60-bit count would pass the positions
		// bound and drive the run preallocation out of range.
		if count > uint64(len(body))*8 {
			return fmt.Errorf("%w: %d deltas in a %d-byte body", ErrCorrupt, count, len(body))
		}
		br := bitio.NewReader(body, -1)
		read := func() (uint64, error) {
			switch m {
			case Elias:
				return readGamma(br)
			case EliasDelta:
				return readDelta(br)
			default:
				return readVarint(br)
			}
		}
		return decodeDeltas(r, curve, count, read, buf)
	case Golomb:
		if len(body) < 1 {
			return fmt.Errorf("%w: missing rice parameter", ErrCorrupt)
		}
		k := body[0]
		if k > 63 {
			return fmt.Errorf("%w: rice parameter %d", ErrCorrupt, k)
		}
		if count > uint64(len(body)-1)*8 {
			return fmt.Errorf("%w: %d deltas in a %d-byte body", ErrCorrupt, count, len(body)-1)
		}
		br := bitio.NewReader(body[1:], -1)
		return decodeDeltas(r, curve, count, func() (uint64, error) { return readRice(br, k) }, buf)
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

// MaxRuns returns the room DecodeInto needs in its buffer to decode data
// there: the run count for Naive; one more than half the delta count for
// the delta codecs; K3Probe.RunsInto's bound for a k³-tree, which takes
// a parse; and none for the octant methods, which always build a new
// list. A caller decoding several REGIONs into one arena sizes it with
// this.
func MaxRuns(data []byte) (int, error) {
	curve, count, body, err := header(data)
	if err != nil {
		return 0, err
	}
	switch Method(data[0]) {
	case Naive:
		if count > uint64(len(body))/8 {
			return 0, fmt.Errorf("%w: naive body truncated", ErrCorrupt)
		}
		return int(count), nil
	case Elias, EliasDelta, Varint, Golomb:
		if count > uint64(len(body))*8 {
			return 0, fmt.Errorf("%w: %d deltas in a %d-byte body", ErrCorrupt, count, len(body))
		}
		return int(count/2 + 1), nil
	case K3Tree:
		var p K3Probe
		if err := p.parseBody(curve, count, body, false); err != nil {
			return 0, err
		}
		return p.maxRuns(), nil
	}
	return 0, nil
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

// decodeDeltas rebuilds runs from an alternating gap/run delta stream
// and refills r with them, building the list in buf when it has room.
// The first delta is a gap unless the region starts at position 0 — the
// encoder writes the leading gap only when nonzero, so the decoder must
// know which comes first. We disambiguate by storing the deltas exactly
// as region.Deltas() returns them and tracking parity from the count of
// elements: Deltas() ends with a run, so with count elements the first
// is a gap iff count is even.
func decodeDeltas(r *region.Region, curve sfc.Curve, count uint64, read func() (uint64, error), buf []region.Run) error {
	// Every delta covers at least one position, so more deltas than the
	// curve has positions is corrupt — and bounding count here keeps a
	// corrupt header from driving the preallocation below.
	if count > curve.Length() {
		return fmt.Errorf("%w: %d deltas on a %d-position curve", ErrCorrupt, count, curve.Length())
	}
	runs := buf[:0]
	if count > 0 && uint64(cap(runs)) < count/2+1 {
		runs = make([]region.Run, 0, count/2+1)
	}
	pos := uint64(0)
	inside := count%2 == 1 // first delta is a run iff odd total (ends with run)
	for i := uint64(0); i < count; i++ {
		length, err := read()
		if err != nil {
			return fmt.Errorf("%w: delta %d: %v", ErrCorrupt, i, err)
		}
		if length == 0 {
			return fmt.Errorf("%w: zero-length delta", ErrCorrupt)
		}
		if length > curve.Length()-pos {
			return fmt.Errorf("%w: deltas overflow curve", ErrCorrupt)
		}
		if inside {
			runs = append(runs, region.Run{Lo: pos, Hi: pos + length - 1})
		}
		pos += length
		inside = !inside
	}
	return r.Refill(curve, runs)
}

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
		bitsTotal := 0
		var k uint8
		if m == Golomb {
			k = riceParam(r)
		}
		r.EachDelta(func(d region.Delta) {
			switch m {
			case Elias:
				bitsTotal += gammaBits(d.Length)
			case EliasDelta:
				bitsTotal += deltaBits(d.Length)
			case Varint:
				bitsTotal += varintBits(d.Length)
			case Golomb:
				bitsTotal += riceBits(d.Length, k)
			}
		})
		n := headerLen + (bitsTotal+7)/8
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
