package qbism

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"qbism/internal/medserver"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the encoders")

// goldenSpecs are one spec of each of the five data shapes.
func goldenSpecs() []struct {
	name string
	spec QuerySpec
} {
	return []struct {
		name string
		spec QuerySpec
	}{
		{"full-study", QuerySpec{StudyID: 1, Atlas: "Talairach", FullStudy: true}},
		{"box", QuerySpec{StudyID: 2, Atlas: "Talairach", Box: &[6]uint32{2, 3, 4, 11, 12, 13}}},
		{"structure", QuerySpec{StudyID: 3, Atlas: "Talairach", Structure: "putamen"}},
		{"band", QuerySpec{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63}},
		{"band-structure", QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "ntal1", HasBand: true, BandLo: 128, BandHi: 159, Encoding: medserver.EncK3Tree}},
	}
}

// goldenMeta is a reply header with every field distinct.
func goldenMeta(degraded bool) QueryMeta {
	m := QueryMeta{
		N: 128, DX: 1.5, DY: 1.25, DZ: 2, AtlasID: 1, Patient: "Doe, J.", PatientID: 17, Date: "1993-08-01",
		DBCPUNanos: 75400, LFMPages: 10, LFMReads: 3, CacheHits: 7, CacheMisses: 10,
	}
	if degraded {
		m.Degraded, m.Warning = true, "no stored intensityBand [3,9]; recomputed from VOLUME"
	}
	return m
}

func encodeResponse(t testing.TB, m QueryMeta, blob []byte) []byte {
	t.Helper()
	frame, err := medserver.EncodeQueryResponse(&m, blob)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// The spec and meta codecs are the server package's own; from here they
// are reached through the four functions that frame them. specHeader and
// metaHeader are the wire bytes of a value — the header of the request
// and of the response it travels in — and decodeSpecHeader and
// decodeMetaHeader hand bare header bytes to the decoders the way they
// receive them, inside a valid frame.
func specHeader(q QuerySpec) []byte { return []byte(q.Key()) }

func metaHeader(t testing.TB, m QueryMeta) []byte {
	t.Helper()
	header, _, err := transport.DecodeFrame(encodeResponse(t, m, nil))
	if err != nil {
		t.Fatal(err)
	}
	return header
}

func decodeSpecHeader(t testing.TB, b []byte) (QuerySpec, error) {
	t.Helper()
	return medserver.DecodeQueryRequest(encodeFrameT(t, b, nil))
}

func decodeMetaHeader(t testing.TB, b []byte) (*QueryMeta, error) {
	t.Helper()
	m, _, err := DecodeQueryResponse(encodeFrameT(t, b, nil))
	return m, err
}

// TestWireGolden pins one request and one response of each data shape,
// and a degraded reply, byte for byte: a layout change is a diff of
// testdata/wire_golden.txt. The offsets DESIGN.md §14 documents are
// asserted against the same bytes.
func TestWireGolden(t *testing.T) {
	var out strings.Builder
	for i, tc := range goldenSpecs() {
		req, err := EncodeQueryRequest(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "request %s: %s\n", tc.name, hex.EncodeToString(req))
		blob := bytes.Repeat([]byte{byte(0xD0 + i)}, 4+i) // the blob is opaque to the header
		fmt.Fprintf(&out, "response %s: %s\n", tc.name, hex.EncodeToString(encodeResponse(t, goldenMeta(false), blob)))
	}
	fmt.Fprintf(&out, "response degraded: %s\n", hex.EncodeToString(encodeResponse(t, goldenMeta(true), []byte{0xDD})))
	const path = "testdata/wire_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("wire bytes changed (run with -update only for a reviewed wire revision):\n got:\n%s\nwant:\n%s", out.String(), want)
	}

	type field struct {
		name       string
		off, width int
		want       uint64
	}
	check := func(what string, b []byte, fields []field, strs ...string) {
		t.Helper()
		for _, f := range fields {
			var got uint64
			switch f.width {
			case 1:
				got = uint64(b[f.off])
			case 4:
				got = uint64(binary.BigEndian.Uint32(b[f.off:]))
			case 8:
				got = binary.BigEndian.Uint64(b[f.off:])
			}
			if got != f.want {
				t.Errorf("%s %s at [%d,%d): %#x, want %#x", what, f.name, f.off, f.off+f.width, got, f.want)
			}
		}
		off := fields[len(fields)-1].off + fields[len(fields)-1].width
		for _, s := range strs {
			if n := int(binary.BigEndian.Uint16(b[off:])); n != len(s) || string(b[off+2:off+2+n]) != s {
				t.Errorf("%s string at %d: length %d, want %q", what, off, n, s)
			}
			off += 2 + len(s)
		}
		if off != len(b) {
			t.Errorf("%s: documented fields end at %d, header is %d bytes", what, off, len(b))
		}
	}
	const specHasBox, specHasBand, metaDegraded = 1 << 1, 1 << 2, 1 << 0 // flag bits, DESIGN.md §14
	box := goldenSpecs()[1].spec
	b := specHeader(box)
	check("spec", b, []field{
		{"version", 0, 1, 1}, {"flags", 1, 1, specHasBox},
		{"StudyID", 2, 8, 2}, {"BandLo", 10, 8, 0}, {"BandHi", 18, 8, 0},
		{"Box[0]", 26, 4, 2}, {"Box[1]", 30, 4, 3}, {"Box[2]", 34, 4, 4},
		{"Box[3]", 38, 4, 11}, {"Box[4]", 42, 4, 12}, {"Box[5]", 46, 4, 13},
	}, "Talairach", "", "")
	mixed := goldenSpecs()[4].spec
	check("spec", specHeader(mixed), []field{
		{"version", 0, 1, 1}, {"flags", 1, 1, specHasBand},
		{"StudyID", 2, 8, 1}, {"BandLo", 10, 8, 128}, {"BandHi", 18, 8, 159},
	}, "Talairach", "ntal1", medserver.EncK3Tree)
	m := goldenMeta(true)
	check("meta", metaHeader(t, m), []field{
		{"version", 0, 1, 1}, {"flags", 1, 1, metaDegraded},
		{"N", 2, 8, 128}, {"DX", 10, 8, math.Float64bits(1.5)}, {"DY", 18, 8, math.Float64bits(1.25)},
		{"DZ", 26, 8, math.Float64bits(2)}, {"AtlasID", 34, 8, 1}, {"PatientID", 42, 8, 17},
		{"DBCPUNanos", 50, 8, 75400}, {"LFMPages", 58, 8, 10}, {"LFMReads", 66, 8, 3},
		{"CacheHits", 74, 8, 7}, {"CacheMisses", 82, 8, 10},
	}, "Doe, J.", "1993-08-01", m.Warning)
	// A value with no box and three empty strings is its fixed part and
	// three zero lengths.
	if specFixed, metaFixed := len(specHeader(QuerySpec{}))-3*2, len(metaHeader(t, QueryMeta{}))-3*2; specFixed != 26 || metaFixed != 90 {
		t.Errorf("fixed parts are %d and %d bytes, documented as 26 and 90", specFixed, metaFixed)
	}
}

// sameMeta compares metas bit for bit, so that a NaN spacing equals itself.
func sameMeta(a, b QueryMeta) bool {
	bits := func(m QueryMeta) [3]uint64 {
		return [3]uint64{math.Float64bits(m.DX), math.Float64bits(m.DY), math.Float64bits(m.DZ)}
	}
	if bits(a) != bits(b) {
		return false
	}
	a.DX, a.DY, a.DZ, b.DX, b.DY, b.DZ = 0, 0, 0, 0, 0, 0
	return a == b
}

// TestWireRoundTrip: decode(encode(x)) == x, and encode(decode(b)) == b,
// for specs and metas over every flag combination, negative and extreme
// integers, NaN and infinite spacings, empty and maximum-length strings.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ints := []int{0, 1, -1, 255, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	floats := []float64{0, 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	strs := []string{"", "Talairach", "it's \"quoted\"\x00\n", "ünï", strings.Repeat("s", math.MaxUint16)}
	pick := func(n int) int { return rng.Intn(n) }
	for flags := 0; flags < 8; flags++ {
		for i := 0; i < 64; i++ {
			q := QuerySpec{
				FullStudy: flags&1 != 0, HasBand: flags&4 != 0,
				StudyID: ints[pick(len(ints))], BandLo: ints[pick(len(ints))], BandHi: ints[pick(len(ints))],
				Atlas: strs[pick(len(strs))], Structure: strs[pick(len(strs))], Encoding: strs[pick(len(strs))],
			}
			if flags&2 != 0 {
				q.Box = &[6]uint32{rng.Uint32(), 0, math.MaxUint32, rng.Uint32(), 1, rng.Uint32()}
			}
			req, err := EncodeQueryRequest(q)
			if err != nil {
				t.Fatal(err)
			}
			enc, _, err := transport.DecodeFrame(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(req) != transport.FrameOverhead+len(enc) {
				t.Fatalf("request sized for %d bytes, spec encoding is %d bytes", len(req)-transport.FrameOverhead, len(enc))
			}
			got, err := decodeSpecHeader(t, enc)
			if err != nil || !reflect.DeepEqual(got, q) {
				t.Fatalf("spec round trip: %+v → %+v (%v)", q, got, err)
			}
			if re := specHeader(got); !bytes.Equal(re, enc) {
				t.Fatal("spec re-encoding differs")
			}
			if q.Key() != string(enc) {
				t.Fatal("Key() is not the spec's wire bytes")
			}
		}
	}
	for flags := 0; flags < 2; flags++ {
		for i := 0; i < 128; i++ {
			m := QueryMeta{
				Degraded: flags&1 != 0,
				N:        ints[pick(len(ints))], AtlasID: ints[pick(len(ints))], PatientID: ints[pick(len(ints))],
				DX: floats[pick(len(floats))], DY: floats[pick(len(floats))], DZ: floats[pick(len(floats))],
				DBCPUNanos: int64(ints[pick(len(ints))]), LFMPages: rng.Uint64(), LFMReads: math.MaxUint64,
				CacheHits: rng.Uint64(), CacheMisses: uint64(pick(3)),
				Patient: strs[pick(len(strs))], Date: strs[pick(len(strs))], Warning: strs[pick(len(strs))],
			}
			frame := encodeResponse(t, m, nil)
			enc := metaHeader(t, m)
			if len(frame) != transport.FrameOverhead+len(enc) {
				t.Fatalf("response sized for %d bytes, meta encoding is %d bytes", len(frame)-transport.FrameOverhead, len(enc))
			}
			got, err := decodeMetaHeader(t, enc)
			if err != nil || !sameMeta(*got, m) {
				t.Fatalf("meta round trip: %+v → %+v (%v)", m, got, err)
			}
			if re := metaHeader(t, *got); !bytes.Equal(re, enc) {
				t.Fatal("meta re-encoding differs")
			}
		}
	}
}

// TestWireStringBounds: a string that does not fit its u16 length is
// refused when the header is sized — typed, terminal, never cut — for
// every string field of both headers, and end to end through RunQuery.
func TestWireStringBounds(t *testing.T) {
	long := strings.Repeat("L", math.MaxUint16+1)
	for name, q := range map[string]QuerySpec{
		"Atlas": {Atlas: long}, "Structure": {Structure: long}, "Encoding": {Encoding: long},
	} {
		_, err := EncodeQueryRequest(q)
		if !errors.Is(err, transport.ErrWireHeader) || transport.RetryableError(err) {
			t.Errorf("spec with an over-long %s: %v, want a terminal ErrWireHeader", name, err)
		}
		if err != nil && len(err.Error()) > 256 {
			t.Errorf("the refusal quotes all %d bytes back", len(err.Error()))
		}
	}
	for name, m := range map[string]QueryMeta{
		"Patient": {Patient: long}, "Date": {Date: long}, "Warning": {Warning: long},
	} {
		if _, err := medserver.EncodeQueryResponse(&m, nil); !errors.Is(err, transport.ErrWireHeader) {
			t.Errorf("meta with an over-long %s: %v, want ErrWireHeader", name, err)
		}
	}
	sys := serveAllocSystem(t)
	res, err := sys.RunQuery(QuerySpec{StudyID: sys.Studies[0].StudyID, Atlas: "Talairach", Structure: long})
	if res != nil || !errors.Is(err, transport.ErrWireHeader) {
		t.Errorf("RunQuery with an over-long structure name: %v, want ErrWireHeader before anything is sent", err)
	}
}

// TestWireVersionSkew: a spec or meta header of version 2 — or with a
// flag bit, a missing byte or a trailing one this revision does not
// define — is a typed terminal refusal, from the decoders and from
// ServeRPC, never a mis-parse.
func TestWireVersionSkew(t *testing.T) {
	sys := serveAllocSystem(t)
	small, _ := serveAllocSpecs(sys.Server)
	good := specHeader(small)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, spec := range map[string][]byte{
		"version 2":    mutate(func(b []byte) []byte { b[0] = 2; return b }),
		"unknown flag": mutate(func(b []byte) []byte { b[1] |= 0x80; return b }),
		"short":        good[:len(good)-1],
		"trailing":     mutate(func(b []byte) []byte { return append(b, 0) }),
		"empty":        nil,
		"json":         []byte(`{"studyId":1,"fullStudy":true}`),
	} {
		if _, err := decodeSpecHeader(t, spec); !errors.Is(err, transport.ErrWireHeader) {
			t.Errorf("DecodeQueryRequest(%s spec): %v, want ErrWireHeader", name, err)
		}
		req, err := transport.EncodeFrame(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sys.ServeRPC(nil, QueryMethod, req)
		if resp != nil || !errors.Is(err, transport.ErrWireHeader) || transport.RetryableError(err) {
			t.Errorf("ServeRPC(%s spec): %v, want a terminal ErrWireHeader", name, err)
		}
	}
	meta := metaHeader(t, goldenMeta(false))
	meta[0] = 2
	if _, _, err := DecodeQueryResponse(encodeFrameT(t, meta, []byte("blob"))); !errors.Is(err, transport.ErrWireHeader) || transport.RetryableError(err) {
		t.Errorf("version-2 meta: %v, want a terminal ErrWireHeader", err)
	}
}

func encodeFrameT(t testing.TB, header, body []byte) []byte {
	t.Helper()
	f, err := transport.EncodeFrame(header, body)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestHandlerRetainsNothingOfTheRequest: transport.Server hands the
// handler a buffer it will overwrite with the connection's next request.
// Poison it as soon as the handler returns: the reply, its meta strings,
// what a traced handler logged about the spec, and the next answer to the
// same request are all unharmed.
func TestHandlerRetainsNothingOfTheRequest(t *testing.T) {
	sys := serveAllocSystem(t)
	_, mixed := serveAllocSpecs(sys.Server)
	clean, err := EncodeQueryRequest(mixed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.ServeRPC(nil, QueryMethod, clean)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta, wantBlob, err := DecodeQueryResponse(want)
	if err != nil {
		t.Fatal(err)
	}

	serve := func(sp *obs.Span) (*QueryMeta, []byte) {
		t.Helper()
		buf := append([]byte(nil), clean...)
		resp, err := sys.ServeRPC(sp, QueryMethod, buf)
		for i := range buf {
			buf[i] = 0xFF
		}
		if err != nil {
			t.Fatal(err)
		}
		meta, blob, err := DecodeQueryResponse(resp)
		if err != nil {
			t.Fatalf("reply after the request buffer was poisoned: %v", err)
		}
		return meta, blob
	}
	sp := obs.NewTracer().Start("rpc." + QueryMethod)
	for i := 0; i < 3; i++ { // the second and third run on operator trees the first one bound
		meta, blob := serve(sp)
		if meta.Patient != wantMeta.Patient || meta.Date != wantMeta.Date || meta.N != wantMeta.N || !bytes.Equal(blob, wantBlob) {
			t.Fatalf("serve %d: reply differs once the request buffer is overwritten: %+v", i, meta)
		}
	}
	sp.End()
	if got, _ := sp.Str("query"); got != mixed.Label() {
		t.Errorf("the traced handler's logged spec reads %q after the poison, want %q", got, mixed.Label())
	}
}

// FuzzQueryHeader feeds arbitrary bytes to the spec and meta decoders:
// they never panic, fail only with ErrWireHeader, never produce more
// string bytes than they were given, and accept only canonical input —
// what decodes re-encodes to the same bytes.
func FuzzQueryHeader(f *testing.F) {
	for _, tc := range goldenSpecs() {
		f.Add(specHeader(tc.spec))
	}
	for _, degraded := range []bool{false, true} {
		f.Add(metaHeader(f, goldenMeta(degraded)))
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0})
	f.Add([]byte(`{"studyId":1,"fullStudy":true}`))
	f.Add(append(specHeader(goldenSpecs()[2].spec), 0xAA))
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := decodeSpecHeader(t, data); err != nil {
			if !errors.Is(err, transport.ErrWireHeader) {
				t.Fatalf("spec decoder: untyped error %v", err)
			}
		} else {
			if len(q.Atlas)+len(q.Structure)+len(q.Encoding) > len(data) {
				t.Fatal("spec decoder produced more string bytes than its input")
			}
			if _, err := EncodeQueryRequest(q); err != nil || !bytes.Equal(specHeader(q), data) {
				t.Fatalf("accepted spec is not canonical: %x", data)
			}
		}
		if m, err := decodeMetaHeader(t, data); err != nil {
			if !errors.Is(err, transport.ErrWireHeader) {
				t.Fatalf("meta decoder: untyped error %v", err)
			}
		} else {
			if len(m.Patient)+len(m.Date)+len(m.Warning) > len(data) {
				t.Fatal("meta decoder produced more string bytes than its input")
			}
			if !bytes.Equal(metaHeader(t, *m), data) {
				t.Fatalf("accepted meta is not canonical: %x", data)
			}
		}
	})
}

// FuzzServeRPC hands arbitrary bytes to a small bare server, as the
// request itself and — a fuzzer cannot forge a CRC — as the spec header
// of a well-formed request: the answer is a typed error or a frame
// DecodeQueryResponse accepts, never a panic.
func FuzzServeRPC(f *testing.F) {
	sys := bareServer(f, Config{Bits: 4, NumPET: 1, NumMRI: 1, Seed: 7, SmallStudies: true})
	study := sys.Studies[0].StudyID
	for _, tc := range goldenSpecs() {
		tc.spec.StudyID = study
		if tc.spec.HasBand {
			b := sys.BandRegions[study][0]
			tc.spec.BandLo, tc.spec.BandHi = int(b.Lo), int(b.Hi)
		}
		req, err := EncodeQueryRequest(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(req, true)
		f.Add(req[:len(req)-3], true)
		f.Add(req[transport.FrameOverhead:], false)
	}
	f.Add([]byte(`{"studyId":1,"fullStudy":true}`), false)
	f.Add([]byte{}, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, whole bool) {
		request := data
		if !whole {
			request = encodeFrameT(t, data, nil)
		}
		resp, err := sys.ServeRPC(nil, QueryMethod, request)
		if err != nil {
			if resp != nil {
				t.Fatal("an error came with a response")
			}
			return
		}
		meta, blob, err := DecodeQueryResponse(resp)
		if err != nil {
			t.Fatalf("ServeRPC answered with a frame its own client refuses: %v", err)
		}
		if _, err := UnmarshalDataRegion(blob); err != nil {
			t.Fatalf("ServeRPC answered with a DATA_REGION that does not unmarshal (meta %+v): %v", meta, err)
		}
	})
}
