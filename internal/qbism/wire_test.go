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
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sfc"
	"qbism/internal/transport"
	"qbism/internal/volume"
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

// goldenPopulation is a population query of three studies.
var goldenPopulation = medserver.PopulationQuery{Studies: []int{1, 4, 5}, BandLo: 32, BandHi: 63, Encoding: EncHilbertNaive}

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
// testdata/wire_golden.txt. The offsets DESIGN.md §12 documents are
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
	pop, err := medserver.EncodePopulationRequestInto(nil, &goldenPopulation)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "request population: %s\n", hex.EncodeToString(pop))
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
			case 2:
				got = uint64(binary.BigEndian.Uint16(b[f.off:]))
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
	const specHasBox, specHasBand, metaDegraded = 1 << 1, 1 << 2, 1 << 0 // flag bits, DESIGN.md §12
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
	check("population", pop[transport.FrameOverhead:], []field{
		{"version", 0, 1, 1}, {"flags", 1, 1, 0},
		{"BandLo", 2, 8, 32}, {"BandHi", 10, 8, 63}, {"count", 18, 2, 3},
		{"StudyID[0]", 20, 8, 1}, {"StudyID[1]", 28, 8, 4}, {"StudyID[2]", 36, 8, 5},
	}, EncHilbertNaive)
	// A value with no box and three empty strings is its fixed part and
	// three zero lengths.
	if specFixed, metaFixed := len(specHeader(QuerySpec{}))-3*2, len(metaHeader(t, QueryMeta{}))-3*2; specFixed != 26 || metaFixed != 90 {
		t.Errorf("fixed parts are %d and %d bytes, documented as 26 and 90", specFixed, metaFixed)
	}
}

// TestPopulationWire holds the population request to the wire's rules
// through a bare server's ServeRPC: a header with no study, a count past
// the ids present, an unknown flag bit, another version, a trailing byte
// or a body is refused with transport.ErrWireHeader and no reply; a list
// or a label with no encoding is refused when the request is framed; up
// to eight studies with a 64-byte label are framed in PopulationRoom
// without an allocation; and a reply with a header, or cut short, is
// refused by the client's decoder.
func TestPopulationWire(t *testing.T) {
	srv := bareServer(t, Config{Bits: 4, NumPET: 2, NumMRI: 0, Seed: 7, SmallStudies: true})
	pets := srv.PETStudyIDs()
	b := srv.BandRegions[pets[0]][0]
	q := medserver.PopulationQuery{Studies: pets, BandLo: int(b.Lo), BandHi: int(b.Hi)}
	req, err := medserver.EncodePopulationRequestInto(nil, &q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.ServeRPC(nil, medserver.PopulationMethod, req)
	if err != nil {
		t.Fatal(err)
	}
	var got region.Region
	if err := medserver.DecodePopulationReply(&got, resp); err != nil {
		t.Fatal(err)
	}
	want, err := region.Intersect(srv.BandRegions[pets[0]][0].Region, srv.BandRegions[pets[1]][0].Region)
	if err != nil || !got.Equal(want) {
		t.Fatalf("the population reply decodes to %v, want %v (%v)", &got, want, err)
	}

	header := req[transport.FrameOverhead:]
	edit := func(f func(h []byte) []byte) []byte { return f(bytes.Clone(header)) }
	none, err := medserver.EncodePopulationRequestInto(nil, &medserver.PopulationQuery{BandLo: q.BandLo, BandHi: q.BandHi})
	if err != nil {
		t.Fatal(err)
	}
	for name, request := range map[string][]byte{
		"no study":   none,
		"count past": encodeFrameT(t, edit(func(h []byte) []byte { binary.BigEndian.PutUint16(h[18:], 3); return h }), nil),
		"flag bit":   encodeFrameT(t, edit(func(h []byte) []byte { h[1] = 0x01; return h }), nil),
		"version 2":  encodeFrameT(t, edit(func(h []byte) []byte { h[0] = 2; return h }), nil),
		"trailing":   encodeFrameT(t, edit(func(h []byte) []byte { return append(h, 0) }), nil),
		"a body":     encodeFrameT(t, header, []byte{1}),
	} {
		resp, err := srv.ServeRPC(nil, medserver.PopulationMethod, request)
		if resp != nil || !errors.Is(err, transport.ErrWireHeader) {
			t.Errorf("%s: %d-byte reply, %v; want ErrWireHeader and no reply", name, len(resp), err)
		}
	}

	for name, bad := range map[string]medserver.PopulationQuery{
		"65 536 studies": {Studies: make([]int, math.MaxUint16+1)},
		"a long label":   {Studies: pets, Encoding: strings.Repeat("e", math.MaxUint16+1)},
	} {
		if _, err := medserver.EncodePopulationRequestInto(nil, &bad); !errors.Is(err, transport.ErrWireHeader) {
			t.Errorf("%s: %v, want ErrWireHeader", name, err)
		}
	}

	var room [medserver.PopulationRoom]byte
	eight := medserver.PopulationQuery{Studies: []int{1, 2, 3, 4, 5, 6, 7, 8}, Encoding: strings.Repeat("e", 64)}
	if allocs := testing.AllocsPerRun(10, func() {
		framed, err := medserver.EncodePopulationRequestInto(room[:], &eight)
		if err != nil || &framed[0] != &room[0] {
			t.Fatalf("eight studies with a 64-byte label are not framed in the room: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("framing eight studies in PopulationRoom: %.0f allocations, want 0", allocs)
	}

	body := resp[transport.FrameOverhead:]
	for name, c := range map[string]struct {
		reply []byte
		want  error
	}{
		"a header":  {encodeFrameT(t, []byte{1}, body), transport.ErrWireHeader},
		"cut short": {resp[:len(resp)-1], transport.ErrFrameTruncated},
	} {
		if err := medserver.DecodePopulationReply(&got, c.reply); !errors.Is(err, c.want) {
			t.Errorf("a reply with %s: %v, want %v", name, err, c.want)
		}
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

// overwriteFrame poisons a decoded frame as a transport reusing its
// buffer would.
func overwriteFrame(frame []byte) {
	for i := range frame {
		frame[i] = 0xA5
	}
}

// metaStrings is a meta's strings, copied.
func metaStrings(m *QueryMeta) [3]string {
	return [3]string{strings.Clone(m.Patient), strings.Clone(m.Date), strings.Clone(m.Warning)}
}

// FuzzQueryHeader feeds arbitrary bytes to the spec and meta decoders:
// they never panic, fail only with ErrWireHeader, never produce more
// string bytes than they were given, and accept only canonical input —
// what decodes re-encodes to the same bytes. A decoded meta's strings
// are copies: overwriting the frame it came from leaves them as they
// were.
func FuzzQueryHeader(f *testing.F) {
	for _, tc := range goldenSpecs() {
		f.Add(specHeader(tc.spec))
	}
	for _, degraded := range []bool{false, true} {
		f.Add(metaHeader(f, goldenMeta(degraded)))
	}
	blank := goldenMeta(false)
	blank.Patient, blank.Date = "", ""
	f.Add(metaHeader(f, blank))
	longest := goldenMeta(true)
	longest.Warning = strings.Repeat("W", math.MaxUint16)
	f.Add(metaHeader(f, longest))
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
		frame := encodeFrameT(t, data, nil)
		if m, _, err := DecodeQueryResponse(frame); err != nil {
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
			want := metaStrings(m)
			overwriteFrame(frame)
			if got := metaStrings(m); got != want {
				t.Fatalf("meta strings alias the frame: %.32q once it is overwritten, %.32q before", got, want)
			}
		}
	})
}

// FuzzQueryResponseFrame holds EncodeQueryResponse, which frames a reply
// inside its blob's spare capacity when the header fits there and in a
// new buffer when it does not, to the frame the two sections make apart:
// for any meta strings, blob bytes and spare capacity the reply is
// transport.EncodeFrame(meta header, blob) byte for byte, built in the
// blob's own buffer exactly when the prefix and the header fit its
// spare, and DecodeQueryResponse gives back the meta and the blob — its
// strings copies that overwriting the frame leaves as they were, empty
// or 65 535 bytes long.
func FuzzQueryResponseFrame(f *testing.F) {
	curve, err := sfc.New(sfc.Hilbert, 3, 7)
	if err != nil {
		f.Fatal(err)
	}
	marshal := func(r *region.Region) []byte {
		values := make([]byte, r.NumVoxels())
		for i := range values {
			values[i] = byte(i * 7)
		}
		blob, err := MarshalDataRegion(&volume.DataRegion{Region: r, Values: values}, rencode.Elias)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	q2, err := region.FromBox(curve, region.Box{Min: sfc.Pt(30, 30, 30), Max: sfc.Pt(100, 100, 100)})
	if err != nil {
		f.Fatal(err)
	}
	empty, paper := marshal(region.Empty(curve)), marshal(q2)
	healthy, degraded := goldenMeta(false), goldenMeta(true)
	// The spares: none, the headroom a server's blob has, and one short.
	headroom := uint16(cap(empty) - len(empty))
	for _, spare := range []uint16{0, headroom, headroom - 1} {
		f.Add(healthy.Patient, healthy.Date, "", empty, spare)
		f.Add(healthy.Patient, healthy.Date, "", paper, spare)
		f.Add(degraded.Patient, degraded.Date, degraded.Warning, []byte{0xDD}, spare)
		f.Add(strings.Repeat("P", 1<<10), healthy.Date, "", empty, spare)
		f.Add("", "", "", paper, spare)
		f.Add(healthy.Patient, healthy.Date, strings.Repeat("W", math.MaxUint16), paper, spare)
	}
	f.Fuzz(func(t *testing.T, patient, date, warning string, blob []byte, spare uint16) {
		m := goldenMeta(false)
		m.Patient, m.Date, m.Warning, m.Degraded = patient, date, warning, warning != ""
		owned := make([]byte, len(blob), len(blob)+int(spare))
		copy(owned, blob)
		frame, err := medserver.EncodeQueryResponse(&m, owned)
		if len(patient) > math.MaxUint16 || len(date) > math.MaxUint16 || len(warning) > math.MaxUint16 {
			if !errors.Is(err, transport.ErrWireHeader) {
				t.Fatalf("over-long meta string: %v, want ErrWireHeader", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		header := metaHeader(t, m)
		want := encodeFrameT(t, header, blob)
		if !bytes.Equal(frame, want) {
			t.Fatalf("reply framed with %d spare bytes differs from EncodeFrame(meta, blob)", spare)
		}
		fits := int(spare) >= transport.FrameOverhead+len(header)
		if inPlace := cap(owned) > 0 && &frame[0] == &owned[:1][0]; inPlace != fits {
			t.Fatalf("framed in the blob's buffer: %t, with %d spare bytes for a %d-byte prefix and header",
				inPlace, spare, transport.FrameOverhead+len(header))
		}
		got, gotBlob, err := DecodeQueryResponse(frame)
		if err != nil || !sameMeta(*got, m) || !bytes.Equal(gotBlob, blob) {
			t.Fatalf("reply does not decode to its meta and blob: %v", err)
		}
		overwriteFrame(frame)
		if got.Patient != patient || got.Date != date || got.Warning != warning {
			t.Fatalf("meta strings alias the frame: %.32q, %.32q, %.32q once it is overwritten", got.Patient, got.Date, got.Warning)
		}
	})
}

// FuzzServeRPC hands arbitrary bytes to a small bare server, as the
// request itself and — a fuzzer cannot forge a CRC — as the header of a
// well-formed request, of either method: a medical query's spec or a
// population query's. The answer is a typed error or a frame its client
// accepts — DecodeQueryResponse and a DATA_REGION that unmarshals, or a
// population reply whose REGION decodes — never a panic; a request that
// is not a sealed frame is ErrFrameCorrupt or ErrFrameTruncated.
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
		f.Add(req, true, false)
		f.Add(req[:len(req)-3], true, false)
		f.Add(req[transport.FrameOverhead:], false, false)
	}
	f.Add([]byte(`{"studyId":1,"fullStudy":true}`), false, false)
	f.Add([]byte{}, false, false)
	f.Add([]byte{}, true, false)

	// The population seeds: a valid request over both studies, the same
	// cut short, and headers with no study, with a count past the ids
	// present, with an unknown flag bit and with a trailing byte.
	b := sys.BandRegions[study][0]
	popRequest := func(studies ...int) []byte {
		req, err := medserver.EncodePopulationRequestInto(nil, &medserver.PopulationQuery{
			Studies: studies, BandLo: int(b.Lo), BandHi: int(b.Hi), Encoding: EncHilbertNaive})
		if err != nil {
			f.Fatal(err)
		}
		return req
	}
	pop := popRequest(study, sys.Studies[1].StudyID)
	header := pop[transport.FrameOverhead:]
	f.Add(pop, true, true)
	f.Add(pop[:len(pop)-3], true, true)
	f.Add(header, false, true)
	f.Add(popRequest()[transport.FrameOverhead:], false, true)
	overflow := bytes.Clone(header)
	binary.BigEndian.PutUint16(overflow[18:], 3)
	f.Add(overflow, false, true)
	flagged := bytes.Clone(header)
	flagged[1] = 0x80
	f.Add(flagged, false, true)
	f.Add(append(bytes.Clone(header), 0xAA), false, true)
	f.Fuzz(func(t *testing.T, data []byte, whole, population bool) {
		request := data
		if !whole {
			request = encodeFrameT(t, data, nil)
		}
		method := QueryMethod
		if population {
			method = medserver.PopulationMethod
		}
		resp, err := sys.ServeRPC(nil, method, request)
		// The request's frame is the one check of its bytes: one that is
		// not a sealed frame is refused as damage, retryable.
		if _, _, ferr := transport.DecodeFrame(request); ferr != nil &&
			(!errors.Is(err, transport.ErrFrameCorrupt) && !errors.Is(err, transport.ErrFrameTruncated) || !transport.RetryableError(err)) {
			t.Fatalf("a request that is not a sealed frame (%v): %v, want ErrFrameCorrupt or ErrFrameTruncated", ferr, err)
		}
		if err != nil {
			if resp != nil {
				t.Fatal("an error came with a response")
			}
			return
		}
		if population {
			if err := medserver.DecodePopulationReply(new(region.Region), resp); err != nil {
				t.Fatalf("ServeRPC answered a population query with a frame its own client refuses: %v", err)
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
