package rencode

import (
	"bytes"
	"math/rand"
	"testing"

	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

// Property-based round-trip coverage: randomized REGIONs over random
// curves, every encoding method, byte-identical re-encodes, and the
// monotone run invariants on everything decoded. Generators are seeded
// so failures replay exactly.

// genRegion builds a random region: a random curve (kind, bits) and a
// random subset of its positions expressed as random runs.
func genRegion(rng *rand.Rand) *region.Region {
	kinds := []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline}
	bits := 2 + rng.Intn(3) // 2..4 bits per axis: 64..4096 positions
	c, err := sfc.New(kinds[rng.Intn(len(kinds))], 3, bits)
	if err != nil {
		panic(err)
	}
	n := c.Length()
	var runs []region.Run
	switch rng.Intn(10) {
	case 0: // empty
	case 1: // full
		runs = append(runs, region.Run{Lo: 0, Hi: n - 1})
	default:
		nruns := 1 + rng.Intn(12)
		for i := 0; i < nruns; i++ {
			lo := rng.Uint64() % n
			length := 1 + rng.Uint64()%16
			hi := lo + length - 1
			if hi >= n {
				hi = n - 1
			}
			// Deliberately unsorted, possibly overlapping/adjacent input:
			// FromRuns must canonicalize.
			runs = append(runs, region.Run{Lo: lo, Hi: hi})
		}
	}
	r, err := region.FromRuns(c, runs)
	if err != nil {
		panic(err)
	}
	return r
}

// checkRunInvariants asserts the canonical run-list form every decoded
// REGION must satisfy: runs strictly sorted, pairwise disjoint with at
// least a one-position gap (adjacent runs must have been merged), and
// every position inside the curve's domain.
func checkRunInvariants(t *testing.T, r *region.Region, ctx string) {
	t.Helper()
	n := r.Curve().Length()
	runs := r.Runs()
	for i, run := range runs {
		if run.Lo > run.Hi {
			t.Fatalf("%s: run %d inverted: %v", ctx, i, run)
		}
		if run.Hi >= n {
			t.Fatalf("%s: run %d exceeds curve length %d: %v", ctx, i, n, run)
		}
		if i > 0 {
			prev := runs[i-1]
			if run.Lo <= prev.Hi {
				t.Fatalf("%s: runs %d,%d overlap or are unsorted: %v %v", ctx, i-1, i, prev, run)
			}
			if run.Lo == prev.Hi+1 {
				t.Fatalf("%s: runs %d,%d are adjacent and unmerged: %v %v", ctx, i-1, i, prev, run)
			}
		}
	}
}

// TestEncodeDecodeRoundTripProperty: for 300 random regions and every
// method, Decode(Encode(r)) must equal r, the re-encode of the decode
// must be byte-identical to the first encoding, and the decoded run
// list must be canonical.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for i := 0; i < 300; i++ {
		r := genRegion(rng)
		for _, m := range Methods {
			blob, err := Encode(m, r)
			if err != nil {
				t.Fatalf("iter %d %s: encode: %v", i, m, err)
			}
			if size, err := EncodedSize(m, r); err != nil || size != len(blob) {
				t.Fatalf("iter %d %s: EncodedSize %d != len %d (%v)", i, m, size, len(blob), err)
			}
			dec, err := Decode(blob)
			if err != nil {
				t.Fatalf("iter %d %s: decode: %v", i, m, err)
			}
			if !dec.Equal(r) {
				t.Fatalf("iter %d %s: round trip changed the region:\nin:  %v\nout: %v", i, m, r, dec)
			}
			checkRunInvariants(t, dec, m.String())
			again, err := Encode(m, dec)
			if err != nil {
				t.Fatalf("iter %d %s: re-encode: %v", i, m, err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatalf("iter %d %s: re-encode not byte-identical (%d vs %d bytes)",
					i, m, len(blob), len(again))
			}
		}
	}
}

// TestGammaCodeRoundTripProperty round-trips the Elias γ-code itself
// over random positive integers of random magnitudes, plus the exact
// boundary values, and checks the written length matches gammaBits.
func TestGammaCodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vals []uint64
	for _, b := range []uint64{1, 2, 3, 4, 7, 8, 255, 256, 1 << 16, 1 << 32, 1<<63 - 1, 1 << 63} {
		vals = append(vals, b)
	}
	for i := 0; i < 2000; i++ {
		shift := rng.Intn(63)
		vals = append(vals, 1+rng.Uint64()>>uint(shift))
	}
	var w bitio.Writer
	total := 0
	for _, v := range vals {
		writeGamma(&w, v)
		total += gammaBits(v)
	}
	blob := w.Bytes()
	if want := (total + 7) / 8; len(blob) != want {
		t.Fatalf("gamma stream is %d bytes, gammaBits sums to %d bits (%d bytes)",
			len(blob), total, want)
	}
	r := bitio.NewReader(blob, total)
	for i, v := range vals {
		got, err := r.ReadGamma()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != v {
			t.Fatalf("value %d: wrote %d, read %d", i, v, got)
		}
	}
}

// TestDecodeNeverPanicsOnMutation flips random bits and truncates
// random prefixes of valid encodings: Decode may reject, never panic,
// and anything it does accept must still satisfy the run invariants.
func TestDecodeNeverPanicsOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		r := genRegion(rng)
		for _, m := range Methods {
			blob, err := Encode(m, r)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 20; j++ {
				mut := append([]byte(nil), blob...)
				if len(mut) > 0 && rng.Intn(2) == 0 {
					mut = mut[:rng.Intn(len(mut))]
				}
				if len(mut) > 0 {
					mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("Decode(%x) panicked: %v", mut, p)
						}
					}()
					if dec, err := Decode(mut); err == nil && dec != nil {
						checkRunInvariants(t, dec, "mutated "+m.String())
					}
				}()
			}
		}
	}
}
