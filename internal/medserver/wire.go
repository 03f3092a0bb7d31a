package medserver

import (
	"encoding/binary"
	"fmt"
	"math"

	"qbism/internal/transport"
)

// The binary forms of QuerySpec and QueryMeta — the headers of the
// medicalQuery request and response frames. Numbers are big-endian and
// fixed-width, strings carry a u16 length; DESIGN.md §14 has the offsets.
//
//	spec: version(1)=1 | flags(1) | StudyID i64 | BandLo i64 | BandHi i64 |
//	      [Box 6×u32, iff specHasBox] | Atlas | Structure | Encoding
//	meta: version(1)=1 | flags(1) | N i64 | DX DY DZ f64 | AtlasID i64 |
//	      PatientID i64 | DBCPUNanos i64 | LFMPages LFMReads CacheHits
//	      CacheMisses u64 | Patient | Date | Warning
//
// A value has one encoding and the decoders accept nothing else: another
// version, an unknown flag bit, a short header or trailing bytes fail
// with transport.ErrWireHeader (terminal), so what a decoder accepts
// re-encodes to the bytes it was given. A string over 65 535 bytes has
// no encoding and is refused when sizing, never cut.
const (
	wireVersion = 1

	specFullStudy = 1 << 0
	specHasBox    = 1 << 1
	specHasBand   = 1 << 2
	specFlags     = specFullStudy | specHasBox | specHasBand
	specFixed     = 2 + 3*8
	boxSize       = 6 * 4

	metaDegraded = 1 << 0
	metaFlags    = metaDegraded
	metaFixed    = 2 + 11*8
)

// wireSize is the encoded size of a header: its fixed bytes plus its
// length-prefixed strings.
func wireSize(fixed int, strs ...string) (int, error) {
	for _, s := range strs {
		if len(s) > math.MaxUint16 {
			return 0, fmt.Errorf("qbism: %w: a %d-byte string (%.32q…) exceeds the wire's %d-byte fields",
				transport.ErrWireHeader, len(s), s, math.MaxUint16)
		}
		fixed += 2 + len(s)
	}
	return fixed, nil
}

// EncodeQueryRequest builds the wire request body for QueryMethod from
// a spec: the framed binary spec, exactly what a Client sends, built in
// the one buffer it returns. Load generators and external clients use
// this to drive a daemon through a bare Transport.
func EncodeQueryRequest(spec QuerySpec) ([]byte, error) {
	n, err := specSize(&spec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, transport.FrameOverhead, transport.FrameOverhead+n)
	return transport.SealFrame(appendSpec(buf, &spec), n)
}

// DecodeQueryRequest is the server's inverse of EncodeQueryRequest. The
// spec copies its strings out of request.
func DecodeQueryRequest(request []byte) (QuerySpec, error) {
	return decodeQueryRequest(request, nil)
}

// decodeQueryRequest is DecodeQueryRequest with a set of known strings,
// each mapped to itself: a spec string in names is names' copy, so only
// one the set lacks is copied out of request. A nil set copies every
// string.
func decodeQueryRequest(request []byte, names map[string]string) (QuerySpec, error) {
	header, _, err := transport.DecodeFrame(request)
	if err != nil {
		return QuerySpec{}, fmt.Errorf("qbism: request: %w", err)
	}
	spec, err := decodeSpec(header, names)
	if err != nil {
		return QuerySpec{}, fmt.Errorf("qbism: bad query spec: %w", err)
	}
	return spec, nil
}

// EncodeQueryResponse builds the server's reply: the meta header and the
// DataRegion blob in one frame, sized once.
func EncodeQueryResponse(meta *QueryMeta, blob []byte) ([]byte, error) {
	n, err := metaSize(meta)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, transport.FrameOverhead, transport.FrameOverhead+n+len(blob))
	return transport.SealFrame(append(appendMeta(frame, meta), blob...), n)
}

// DecodeQueryResponse validates a response frame and separates the meta
// header from the DataRegion blob. Truncated or corrupted frames fail
// with transport.ErrFrameTruncated/ErrFrameCorrupt — typed, retryable —
// so a damaged reply is never mis-parsed as data.
func DecodeQueryResponse(resp []byte) (*QueryMeta, []byte, error) {
	header, blob, err := transport.DecodeFrame(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: response: %w", err)
	}
	meta, err := decodeMeta(header)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: bad response header: %w", err)
	}
	return meta, blob, nil
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(dst, uint16(len(s))), s...)
}

func appendI64(dst []byte, v int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(int64(v)))
}

func specSize(q *QuerySpec) (int, error) {
	fixed := specFixed
	if q.Box != nil {
		fixed += boxSize
	}
	return wireSize(fixed, q.Atlas, q.Structure, q.Encoding)
}

// appendSpec appends q's encoding to dst; specSize has vouched for the
// strings.
func appendSpec(dst []byte, q *QuerySpec) []byte {
	var flags byte
	if q.FullStudy {
		flags |= specFullStudy
	}
	if q.Box != nil {
		flags |= specHasBox
	}
	if q.HasBand {
		flags |= specHasBand
	}
	dst = append(dst, wireVersion, flags)
	dst = appendI64(appendI64(appendI64(dst, q.StudyID), q.BandLo), q.BandHi)
	if q.Box != nil {
		for _, c := range q.Box {
			dst = binary.BigEndian.AppendUint32(dst, c)
		}
	}
	return appendStr(appendStr(appendStr(dst, q.Atlas), q.Structure), q.Encoding)
}

func decodeSpec(b []byte, names map[string]string) (QuerySpec, error) {
	r := wireReader{b: b, names: names}
	version, flags := r.u8(), r.u8()
	q := QuerySpec{
		FullStudy: flags&specFullStudy != 0, HasBand: flags&specHasBand != 0,
		StudyID: r.i64(), BandLo: r.i64(), BandHi: r.i64(),
	}
	if flags&specHasBox != 0 {
		if box := r.take(boxSize); box != nil {
			q.Box = new([6]uint32)
			for i := range q.Box {
				q.Box[i] = binary.BigEndian.Uint32(box[4*i:])
			}
		}
	}
	q.Atlas, q.Structure, q.Encoding = r.str(), r.str(), r.str()
	if err := r.done("spec", version, flags&^specFlags); err != nil {
		return QuerySpec{}, err
	}
	return q, nil
}

func metaSize(m *QueryMeta) (int, error) {
	return wireSize(metaFixed, m.Patient, m.Date, m.Warning)
}

// appendMeta appends m's encoding to dst; metaSize has vouched for the
// strings.
func appendMeta(dst []byte, m *QueryMeta) []byte {
	var flags byte
	if m.Degraded {
		flags |= metaDegraded
	}
	dst = append(dst, wireVersion, flags)
	dst = appendI64(dst, m.N)
	for _, f := range [...]float64{m.DX, m.DY, m.DZ} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = appendI64(appendI64(dst, m.AtlasID), m.PatientID)
	for _, v := range [...]uint64{uint64(m.DBCPUNanos), m.LFMPages, m.LFMReads, m.CacheHits, m.CacheMisses} {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return appendStr(appendStr(appendStr(dst, m.Patient), m.Date), m.Warning)
}

func decodeMeta(b []byte) (*QueryMeta, error) {
	r := wireReader{b: b}
	version, flags := r.u8(), r.u8()
	m := &QueryMeta{
		Degraded: flags&metaDegraded != 0,
		N:        r.i64(), DX: r.f64(), DY: r.f64(), DZ: r.f64(),
		AtlasID: r.i64(), PatientID: r.i64(), DBCPUNanos: int64(r.u64()),
		LFMPages: r.u64(), LFMReads: r.u64(), CacheHits: r.u64(), CacheMisses: r.u64(),
	}
	m.Patient, m.Date, m.Warning = r.str(), r.str(), r.str()
	if err := r.done("meta", version, flags&^metaFlags); err != nil {
		return nil, err
	}
	return m, nil
}

// wireReader walks a header front to back. Running short is sticky and
// reads as zeros from then on, so a decoder checks once, in done. A
// string found in names is read as names' copy of it.
type wireReader struct {
	b     []byte
	short bool
	names map[string]string
}

func (r *wireReader) take(n int) []byte {
	if len(r.b) < n {
		r.short, r.b = true, nil
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *wireReader) i64() int     { return int(int64(r.u64())) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// str reads a string out of the header — names' copy when it has one
// (the lookup allocates nothing), a new copy otherwise — so the decoded
// value keeps nothing of the buffer it came from.
func (r *wireReader) str() string {
	if n := r.take(2); n != nil {
		b := r.take(int(binary.BigEndian.Uint16(n)))
		if s, ok := r.names[string(b)]; ok {
			return s
		}
		return string(b)
	}
	return ""
}

// done is the one check a decoder makes after reading every field.
func (r *wireReader) done(what string, version, unknownFlags byte) error {
	switch {
	case version != wireVersion:
		return fmt.Errorf("%w: %s header version %d, want %d", transport.ErrWireHeader, what, version, wireVersion)
	case unknownFlags != 0:
		return fmt.Errorf("%w: %s header flags %#02x not understood", transport.ErrWireHeader, what, unknownFlags)
	case r.short:
		return fmt.Errorf("%w: %s header cut short", transport.ErrWireHeader, what)
	case len(r.b) != 0:
		return fmt.Errorf("%w: %s header has %d trailing bytes", transport.ErrWireHeader, what, len(r.b))
	}
	return nil
}
