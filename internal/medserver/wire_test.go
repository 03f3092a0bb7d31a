package medserver

import (
	"bytes"
	"strings"
	"testing"

	"qbism/internal/bench"
)

// TestDecodedMetaOwnsItsStrings decodes a reply through both decoders,
// then overwrites every byte of it with the poison a released reply
// reads under -race (poisonByte): the transport reuses a reply's buffer
// once its reader is done, so the header's patient, date and warning must
// read as they were sent whatever becomes of it. The strings total 0
// bytes, exactly MetaRoom, one byte more, and a degraded reply's
// warning with its patient and date. The allocations are pinned too:
// DecodeQueryResponseInto makes none while the strings fit its room and
// one when they do not; DecodeQueryResponse one (the header and its room)
// and two.
func TestDecodedMetaOwnsItsStrings(t *testing.T) {
	const date = "1993-05-26"
	long := strings.Repeat("p", MetaRoom-len(date))
	for _, tc := range []struct {
		name string
		meta QueryMeta
	}{
		{"no-strings", QueryMeta{N: 7, PatientID: 3}},
		{"exactly-the-room", QueryMeta{N: 7, Patient: long, Date: date}},
		{"one-byte-over", QueryMeta{N: 7, Patient: long, Date: date, Warning: "!"}},
		{"degraded", QueryMeta{N: 7, Patient: "patient 3", Date: date, Degraded: true,
			Warning: "no stored intensityBand [70,90]; recomputed from VOLUME"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := []byte("the blob")
			resp, err := EncodeQueryResponse(&tc.meta, blob)
			if err != nil {
				t.Fatal(err)
			}
			poison := func(b []byte) {
				for i := range b {
					b[i] = poisonByte
				}
			}

			var room [MetaRoom]byte
			in := bytes.Clone(resp)
			into, gotBlob, err := DecodeQueryResponseInto(&room, in)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotBlob) != string(blob) {
				t.Errorf("Into: blob %q, want %q", gotBlob, blob)
			}
			poison(in)
			if into != tc.meta {
				t.Errorf("Into: the header reads %+v once the reply is poisoned, want %+v", into, tc.meta)
			}

			in = bytes.Clone(resp)
			meta, _, err := DecodeQueryResponse(in)
			if err != nil {
				t.Fatal(err)
			}
			poison(in)
			if *meta != tc.meta {
				t.Errorf("DecodeQueryResponse: the header reads %+v once the reply is poisoned, want %+v", *meta, tc.meta)
			}

			over := 0.0
			if len(tc.meta.Patient)+len(tc.meta.Date)+len(tc.meta.Warning) > MetaRoom {
				over = 1
			}
			if got := bench.AllocsPerCall(t.Logf, 100, func() {
				if _, _, err := DecodeQueryResponseInto(&room, resp); err != nil {
					t.Fatal(err)
				}
			}); got != over {
				t.Errorf("DecodeQueryResponseInto: %.3f allocs per call, want %.0f", got, over)
			}
			if got := bench.AllocsPerCall(t.Logf, 100, func() {
				if _, _, err := DecodeQueryResponse(resp); err != nil {
					t.Fatal(err)
				}
			}); got != 1+over {
				t.Errorf("DecodeQueryResponse: %.3f allocs per call, want %.0f", got, 1+over)
			}
		})
	}
}
