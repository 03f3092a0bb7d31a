package medserver

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/transport"
)

// The binary forms of QuerySpec and QueryMeta — the headers of the
// medicalQuery request and response frames — and of PopulationQuery, the
// population request's. Numbers are big-endian and
// fixed-width, strings carry a u16 length; DESIGN.md §12 has the offsets.
//
//	spec: version(1)=1 | flags(1) | StudyID i64 | BandLo i64 | BandHi i64 |
//	      [Box 6×u32, iff specHasBox] | Atlas | Structure | Encoding
//	meta: version(1)=1 | flags(1) | N i64 | DX DY DZ f64 | AtlasID i64 |
//	      PatientID i64 | DBCPUNanos i64 | LFMPages LFMReads CacheHits
//	      CacheMisses u64 | Patient | Date | Warning
//	population: version(1)=1 | flags(1)=0 | BandLo i64 | BandHi i64 |
//	      count u16 ≥ 1 | count × StudyID i64 | Encoding
//
// A population request has no body; its reply has no header, and its
// body is the answer REGION in the server's wire codec (Config.Method).
// Each is a sealed frame, whose CRC only its decoder checks.
//
// A value has one encoding and the decoders accept nothing else: another
// version, an unknown flag bit, a short header or trailing bytes fail
// with transport.ErrWireHeader (terminal), so what a decoder accepts
// re-encodes to the bytes it was given. A string over 65 535 bytes, or a
// list of more studies, has no encoding and is refused when sizing,
// never cut.
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

	// replyHeadroom is the spare capacity newDataRegionBlob gives every
	// blob, so that the reply is framed in the blob's own buffer: the
	// frame prefix, the meta header's fixed part and its three string
	// length prefixes, and metaStrRoom bytes for the patient name and
	// the acquisition date. A header longer than that — a degraded
	// reply's warning — is framed in a new buffer instead.
	metaStrRoom   = 64
	replyHeadroom = transport.FrameOverhead + metaFixed + 3*2 + metaStrRoom

	// specStrRoom is what RequestRoom leaves for a spec's atlas,
	// structure and encoding names.
	specStrRoom = 64

	popFixed = 2 + 2*8 + 2
)

// RequestRoom is the size of the request frame of any spec whose atlas,
// structure and encoding names come to at most 64 bytes, a box or none:
// a caller that hands EncodeQueryRequestInto this much room frames such
// a request without an allocation.
const RequestRoom = transport.FrameOverhead + specFixed + boxSize + 3*2 + specStrRoom

// MetaRoom is the room a caller lends DecodeQueryResponseInto for a
// reply header's patient name, date and warning: the metaStrRoom bytes
// every reply's headroom reserves for them, so a header the server
// framed in its blob's buffer decodes without an allocation.
const MetaRoom = metaStrRoom

// PopulationRoom is the size of the request frame of any population
// query of at most eight studies and a label of at most 64 bytes.
const PopulationRoom = transport.FrameOverhead + popFixed + 8*8 + 2 + specStrRoom

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
	return EncodeQueryRequestInto(nil, spec)
}

// EncodeQueryRequestInto is EncodeQueryRequest built in room's storage
// when the frame fits its capacity (RequestRoom fits the usual spec),
// and otherwise in one new buffer of the frame's exact size.
func EncodeQueryRequestInto(room []byte, spec QuerySpec) ([]byte, error) {
	n, err := specSize(&spec)
	if err != nil {
		return nil, err
	}
	buf := room[:0]
	if cap(buf) < transport.FrameOverhead+n {
		buf = make([]byte, 0, transport.FrameOverhead+n)
	}
	return transport.SealFrame(appendSpec(buf[:transport.FrameOverhead], &spec), n)
}

// DecodeQueryRequest is the server's inverse of EncodeQueryRequest. The
// spec copies its strings out of request.
func DecodeQueryRequest(request []byte) (QuerySpec, error) {
	var room [6]uint32
	spec, box, err := decodeQueryRequest(request, nil, &room)
	if box != nil {
		b := *box
		spec.Box = &b
	}
	return spec, err
}

// decodeQueryRequest is DecodeQueryRequest with a set of known strings,
// each mapped to itself, and the box kept apart: a spec string in names
// is names' copy, so only one the set lacks is copied out of request (a
// nil set copies every string), and the spec's box is decoded into *room
// and returned — nil when the spec has none — with the spec's Box left
// nil. The spec's strings go on to the statements' binds, which outlive
// the call; a box kept apart from them can stay on the caller's stack.
func decodeQueryRequest(request []byte, names map[string]string, room *[6]uint32) (QuerySpec, *[6]uint32, error) {
	header, _, err := transport.DecodeFrame(request)
	if err != nil {
		return QuerySpec{}, nil, fmt.Errorf("qbism: request: %w", err)
	}
	spec, box, err := decodeSpec(header, names, room)
	if err != nil {
		return QuerySpec{}, nil, fmt.Errorf("qbism: bad query spec: %w", err)
	}
	return spec, box, nil
}

// EncodeQueryResponse builds the server's reply: the meta header and the
// DataRegion blob in one frame. It takes ownership of blob: when blob's
// spare capacity holds the frame prefix and the header, the blob's bytes
// move up in place and the frame is blob's own buffer (newDataRegionBlob
// gives every blob that room); otherwise the frame is one new buffer,
// sized once, and blob is left as it was. Either way the frame is the
// caller's, to keep or — once written — to hand back to the server's
// free list (Server.ReleaseReply).
func EncodeQueryResponse(meta *QueryMeta, blob []byte) ([]byte, error) {
	n, err := metaSize(meta)
	if err != nil {
		return nil, err
	}
	head := transport.FrameOverhead + n
	var frame []byte
	if cap(blob)-len(blob) >= head {
		frame = blob[:head+len(blob)]
	} else {
		frame = make([]byte, head+len(blob))
	}
	// The blob moves first (in place, a memmove), then the header fills
	// the bytes in front of it: frame has the room, so nothing regrows.
	copy(frame[head:], blob)
	appendMeta(frame[:transport.FrameOverhead], meta)
	return transport.SealFrame(frame, n)
}

// DecodeQueryResponse validates a response frame and separates the meta
// header from the DataRegion blob. Truncated or corrupted frames fail
// with transport.ErrFrameTruncated/ErrFrameCorrupt — typed, retryable —
// so a damaged reply is never mis-parsed as data. The header is one new
// object, its strings held in its own room; a header whose strings
// outgrow MetaRoom costs one more allocation, for them.
func DecodeQueryResponse(resp []byte) (*QueryMeta, []byte, error) {
	d := new(struct {
		meta QueryMeta
		room [MetaRoom]byte
	})
	meta, blob, err := DecodeQueryResponseInto(&d.room, resp)
	if err != nil {
		return nil, nil, err
	}
	d.meta = meta
	return &d.meta, blob, nil
}

// DecodeQueryResponseInto is DecodeQueryResponse with the header
// returned by value and its strings — the patient name, the date and
// the warning — copied into room when they fit it, so it allocates
// nothing; strings that do not (a degraded reply's long warning) share
// one new string instead. Either way they keep nothing of resp, which
// the transport may reuse. The strings live in room: the caller must not
// write it again while it keeps the header. On an error room's contents
// are unspecified.
func DecodeQueryResponseInto(room *[MetaRoom]byte, resp []byte) (QueryMeta, []byte, error) {
	header, blob, err := transport.DecodeFrame(resp)
	if err != nil {
		return QueryMeta{}, nil, fmt.Errorf("qbism: response: %w", err)
	}
	meta, err := decodeMeta(room, header)
	if err != nil {
		return QueryMeta{}, nil, fmt.Errorf("qbism: bad response header: %w", err)
	}
	return meta, blob, nil
}

// EncodePopulationRequestInto builds the wire request body for
// PopulationMethod from q, in room's storage when the frame fits it and
// otherwise in one new buffer of the frame's exact size.
func EncodePopulationRequestInto(room []byte, q *PopulationQuery) ([]byte, error) {
	if len(q.Studies) > math.MaxUint16 {
		return nil, fmt.Errorf("qbism: %w: %d studies exceed the population header's %d",
			transport.ErrWireHeader, len(q.Studies), math.MaxUint16)
	}
	n, err := wireSize(popFixed+8*len(q.Studies), q.Encoding)
	if err != nil {
		return nil, err
	}
	buf := room[:0]
	if cap(buf) < transport.FrameOverhead+n {
		buf = make([]byte, 0, transport.FrameOverhead+n)
	}
	dst := append(buf[:transport.FrameOverhead], wireVersion, 0)
	dst = appendI64(appendI64(dst, q.BandLo), q.BandHi)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(q.Studies)))
	for _, id := range q.Studies {
		dst = appendI64(dst, id)
	}
	return transport.SealFrame(appendStr(dst, q.Encoding), n)
}

// decodePopulationRequest is the server's inverse of
// EncodePopulationRequestInto: it sets q's band and label (names' copy
// when the set holds it) and returns the studies appended to studies —
// apart from q, so that room for them on the caller's stack stays there
// whatever becomes of the label.
func decodePopulationRequest(q *PopulationQuery, request []byte, names map[string]string, studies []int) ([]int, error) {
	header, body, err := transport.DecodeFrame(request)
	if err != nil {
		return nil, fmt.Errorf("qbism: request: %w", err)
	}
	r := wireReader{b: header, names: names}
	version, flags := r.u8(), r.u8()
	q.BandLo, q.BandHi = r.i64(), r.i64()
	count := 0
	if c := r.take(2); c != nil {
		count = int(binary.BigEndian.Uint16(c))
	}
	if ids := r.take(8 * count); ids != nil {
		for i := range count {
			studies = append(studies, int(int64(binary.BigEndian.Uint64(ids[8*i:]))))
		}
	}
	q.Encoding = r.str()
	if err = r.done("population", version, flags); err == nil && (count == 0 || len(body) != 0) {
		err = fmt.Errorf("%w: population request of %d studies and a %d-byte body, want at least one and none",
			transport.ErrWireHeader, count, len(body))
	}
	if err != nil {
		return nil, fmt.Errorf("qbism: bad population query: %w", err)
	}
	return studies, nil
}

// DecodePopulationReply validates a PopulationMethod reply frame and
// decodes its answer REGION into r, in a new run list. A damaged frame is
// ErrFrameTruncated or ErrFrameCorrupt (retryable), a header
// ErrWireHeader; on an error r is left as it was.
func DecodePopulationReply(r *region.Region, resp []byte) error {
	header, body, err := transport.DecodeFrame(resp)
	if err != nil {
		return fmt.Errorf("qbism: response: %w", err)
	}
	if len(header) != 0 {
		return fmt.Errorf("qbism: bad population reply: %w: a %d-byte header, want none", transport.ErrWireHeader, len(header))
	}
	if err := rencode.DecodeInto(r, body, nil); err != nil {
		return fmt.Errorf("qbism: bad population reply: %w", err)
	}
	return nil
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

// decodeSpec decodes a spec header, its box into *room: it returns the
// spec with a nil Box, and room when the spec has a box.
func decodeSpec(b []byte, names map[string]string, room *[6]uint32) (QuerySpec, *[6]uint32, error) {
	r := wireReader{b: b, names: names}
	version, flags := r.u8(), r.u8()
	q := QuerySpec{
		FullStudy: flags&specFullStudy != 0, HasBand: flags&specHasBand != 0,
		StudyID: r.i64(), BandLo: r.i64(), BandHi: r.i64(),
	}
	var box *[6]uint32
	if flags&specHasBox != 0 {
		if c := r.take(boxSize); c != nil {
			for i := range room {
				room[i] = binary.BigEndian.Uint32(c[4*i:])
			}
			box = room
		}
	}
	q.Atlas, q.Structure, q.Encoding = r.str(), r.str(), r.str()
	if err := r.done("spec", version, flags&^specFlags); err != nil {
		return QuerySpec{}, nil, err
	}
	return q, box, nil
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

// decodeMeta decodes a meta header, its strings into room (see
// DecodeQueryResponseInto). The header is returned by value, never
// stored through a pointer, so room stays wherever its caller put it: a
// room on the stack of a caller that only checks the header stays there.
func decodeMeta(room *[MetaRoom]byte, b []byte) (QueryMeta, error) {
	r := wireReader{b: b}
	version, flags := r.u8(), r.u8()
	m := QueryMeta{
		Degraded: flags&metaDegraded != 0,
		N:        r.i64(), DX: r.f64(), DY: r.f64(), DZ: r.f64(),
		AtlasID: r.i64(), PatientID: r.i64(), DBCPUNanos: int64(r.u64()),
		LFMPages: r.u64(), LFMReads: r.u64(), CacheHits: r.u64(), CacheMisses: r.u64(),
	}
	// The three strings are copied into one, in room when they fit it and
	// in one new buffer otherwise, and point into it: no allocation for
	// the usual header, one for a longer one, and nothing of b kept.
	patient, date, warning := r.bytes(), r.bytes(), r.bytes()
	i := len(patient)
	j := i + len(date)
	n := j + len(warning)
	var buf []byte
	if n <= len(room) {
		buf = room[:n]
	} else {
		buf = make([]byte, n)
	}
	copy(buf, patient)
	copy(buf[i:], date)
	copy(buf[j:], warning)
	all := unsafe.String(unsafe.SliceData(buf), n)
	m.Patient, m.Date, m.Warning = all[:i], all[i:j], all[j:]
	if err := r.done("meta", version, flags&^metaFlags); err != nil {
		return QueryMeta{}, err
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

// bytes reads a length-prefixed string's bytes, which alias the header.
func (r *wireReader) bytes() []byte {
	if n := r.take(2); n != nil {
		return r.take(int(binary.BigEndian.Uint16(n)))
	}
	return nil
}

// str reads a string out of the header — names' copy when it has one
// (the lookup allocates nothing), a new copy otherwise — so the decoded
// value keeps nothing of the buffer it came from.
func (r *wireReader) str() string {
	b := r.bytes()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	return string(b)
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
