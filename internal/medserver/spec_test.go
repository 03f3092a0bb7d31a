package medserver

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// labelFormula is how Label was first written — a parts list, two
// Sprintfs and a Join — kept as the reference its one-allocation form
// must match.
func labelFormula(q QuerySpec) string {
	var parts []string
	if q.FullStudy {
		parts = append(parts, "entire study")
	}
	if q.Box != nil {
		parts = append(parts, fmt.Sprintf("box (%d,%d,%d)-(%d,%d,%d)",
			q.Box[0], q.Box[1], q.Box[2], q.Box[3], q.Box[4], q.Box[5]))
	}
	if q.Structure != "" {
		parts = append(parts, q.Structure)
	}
	if q.HasBand {
		parts = append(parts, fmt.Sprintf("band %d-%d", q.BandLo, q.BandHi))
	}
	if len(parts) == 0 {
		parts = append(parts, "empty spec")
	}
	return fmt.Sprintf("study %d: %s", q.StudyID, strings.Join(parts, " in "))
}

func TestLabelMatchesFormula(t *testing.T) {
	box := &[6]uint32{2, 3, 4, 11, 12, 13}
	maxBox := &[6]uint32{math.MaxUint32, 0, math.MaxUint32, 1, math.MaxUint32, 7}
	for _, q := range []QuerySpec{
		{StudyID: 1, FullStudy: true},
		{StudyID: 2, Box: box},
		{StudyID: 3, Structure: "putamen"},
		{StudyID: 4, HasBand: true, BandLo: 32, BandHi: 63},
		{StudyID: 5, Structure: "ntal1", HasBand: true, BandLo: 128, BandHi: 159},
		{StudyID: 6},
		{StudyID: math.MaxInt64, Box: maxBox, HasBand: true, BandLo: math.MinInt64, BandHi: -1},
		{StudyID: math.MinInt64, FullStudy: true, Box: box, Structure: "x", HasBand: true, BandLo: -7, BandHi: math.MaxInt64},
		{StudyID: -3, Structure: strings.Repeat("long structure name ", 20)},
	} {
		if got, want := q.Label(), labelFormula(q); got != want {
			t.Errorf("Label() = %q, want %q", got, want)
		}
	}
	q := QuerySpec{StudyID: 5, Structure: "ntal1", HasBand: true, BandLo: 128, BandHi: 159}
	if n := testing.AllocsPerRun(100, func() { _ = q.Label() }); n != 1 {
		t.Errorf("Label: %.0f allocations, want 1", n)
	}
}

// TestDecodeRequestInternsNames: the server's request decode takes a
// spec string the name set holds from the set and copies any other out
// of the request, so the decoded spec keeps nothing of the request
// buffer either way; with only known strings it allocates nothing.
// DecodeQueryRequest, with no set, still copies every string.
func TestDecodeRequestInternsNames(t *testing.T) {
	names := map[string]string{"Talairach": "Talairach", "putamen": "putamen", EncK3Tree: EncK3Tree}
	known := QuerySpec{StudyID: 3, Atlas: "Talairach", Structure: "putamen", HasBand: true, BandLo: 32, BandHi: 63, Encoding: EncK3Tree}
	request, err := EncodeQueryRequest(known)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeQueryRequest(request, names)
	if err != nil || got.Key() != known.Key() {
		t.Fatalf("decodeQueryRequest = %+v, %v; want %+v", got, err, known)
	}
	for _, s := range []string{got.Atlas, got.Structure, got.Encoding} {
		if unsafe.StringData(s) != unsafe.StringData(names[s]) {
			t.Errorf("%q was copied, not taken from the name set", s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = decodeQueryRequest(request, names) }); n != 0 {
		t.Errorf("decoding a request of known names: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeQueryRequest(request) }); n != 3 {
		t.Errorf("DecodeQueryRequest: %.0f allocations, want 3 (a copy per string)", n)
	}

	unknown := known
	unknown.Structure = "caudate"
	request, err = EncodeQueryRequest(unknown)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeQueryRequest(request, names)
	if err != nil {
		t.Fatal(err)
	}
	clear(request)
	if got.Key() != unknown.Key() {
		t.Errorf("after the request buffer was cleared the spec reads %+v, want %+v", got, unknown)
	}
}
