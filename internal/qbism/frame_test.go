package qbism

import (
	"bytes"
	"errors"
	"testing"

	"qbism/internal/transport"
)

// The frame codec itself (round trip, bit-flip and truncation
// detection, length-bomb rejection, fuzzing) is tested where it lives:
// internal/transport. This smoke test pins that qbism's wire bytes are
// transport frames and its frame failures transport's sentinels.
func TestFrameDelegatesToTransport(t *testing.T) {
	f, err := transport.EncodeFrame([]byte("meta"), []byte("voxels"))
	if err != nil {
		t.Fatal(err)
	}
	h, b, err := transport.DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h, []byte("meta")) || !bytes.Equal(b, []byte("voxels")) {
		t.Error("round trip mismatch through the transport codec")
	}
	f[len(f)-1] ^= 1
	if _, _, err := DecodeQueryResponse(f); !errors.Is(err, transport.ErrFrameCorrupt) {
		t.Errorf("corrupt frame: %v, want transport.ErrFrameCorrupt", err)
	}
	if _, _, err := DecodeQueryResponse(f[:3]); !errors.Is(err, transport.ErrFrameTruncated) {
		t.Errorf("truncated frame: %v, want transport.ErrFrameTruncated", err)
	}
	req, err := EncodeQueryRequest(QuerySpec{StudyID: 1, Atlas: "Talairach", FullStudy: true})
	if err != nil {
		t.Fatal(err)
	}
	if h, b, err = transport.DecodeFrame(req); err != nil || len(b) != 0 || string(h) != (QuerySpec{StudyID: 1, Atlas: "Talairach", FullStudy: true}).Key() {
		t.Errorf("request is not a body-less transport frame around the spec's key: %q %q %v", h, b, err)
	}
}

func TestQuerySpecKeyDistinct(t *testing.T) {
	// Distinct specs must never share a cache key, including two that
	// Label() alone conflates (they differ in Atlas or Encoding).
	box := [6]uint32{1, 2, 3, 4, 5, 6}
	specs := []QuerySpec{
		{StudyID: 1, Atlas: "Talairach", FullStudy: true},
		{StudyID: 2, Atlas: "Talairach", FullStudy: true},
		{StudyID: 1, Atlas: "Other", FullStudy: true},
		{StudyID: 1, Atlas: "Talairach", Structure: "ntal"},
		{StudyID: 1, Atlas: "Talairach", Structure: "putamen"},
		{StudyID: 1, Atlas: "Talairach", Box: &box},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 0, BandHi: 31},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63, Encoding: EncOctant},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63, Structure: "ntal"},
	}
	seen := make(map[string]int)
	for i, q := range specs {
		k := q.Key()
		if k == "" {
			t.Errorf("spec %d: empty key", i)
		}
		if j, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide on %q", j, i, k)
		}
		seen[k] = i
	}
}
