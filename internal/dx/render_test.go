package dx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"qbism/internal/atlas"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/rencode/zoo"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// oracleRender is Render as it was before the digit-tree walk, kept as
// the differential oracle: every voxel's id decoded to its point with
// c.Point, in curve order.
func oracleRender(d *volume.DataRegion, opts RenderOpts) *Image {
	c := d.Region.Curve()
	side := 1 << c.Bits()
	img := &Image{W: side, H: side, Pix: make([]uint8, side*side)}
	sum := make([]uint32, side*side)
	cnt := make([]uint32, side*side)
	i := 0
	d.Region.ForEachID(func(id uint64) bool {
		p, v := c.Point(id), d.Values[i]
		i++
		var u, w int
		switch opts.Axis {
		case 0:
			u, w = int(p.Y), int(p.Z)
		case 1:
			u, w = int(p.X), int(p.Z)
		default:
			u, w = int(p.X), int(p.Y)
		}
		idx := (side-1-w)*side + u // image y grows downward
		if opts.Mode == MIP {
			img.Pix[idx] = max(img.Pix[idx], v)
		} else {
			sum[idx] += uint32(v)
			cnt[idx]++
		}
		return true
	})
	if opts.Mode == Average {
		for i := range img.Pix {
			if cnt[i] > 0 {
				img.Pix[i] = uint8(sum[i] / cnt[i])
			}
		}
	}
	return img
}

// renderShapes are the REGIONs the differential test renders on c: a
// box, an ellipsoid, a short-run intensity band, the empty region and
// the full grid. vol is the field the values come from; its bands are
// speckled, so a band REGION breaks into short runs.
func renderShapes(t testing.TB, c sfc.Curve) (vol *volume.Volume, shapes []struct {
	name string
	r    *region.Region
}) {
	t.Helper()
	vol = volume.FromFunc(c, func(p sfc.Point) uint8 {
		h := p.X*0x9E3779B1 ^ p.Y*0x85EBCA77 ^ p.Z*0xC2B2AE3D
		return uint8(h>>24) | uint8(p.X+p.Y+p.Z)
	})
	m := uint32(1)<<c.Bits() - 1
	box, err := region.FromBox(c, region.Box{Min: sfc.Pt(m/4, m/3, m/5), Max: sfc.Pt(m*3/4, m, m*2/3)})
	if err != nil {
		t.Fatal(err)
	}
	half := float64(m+1) / 2
	ell, err := region.FromEllipsoid(c, region.Ellipsoid{CX: half, CY: half * 0.8, CZ: half * 1.1, RX: half * 0.7, RY: half * 0.5, RZ: half * 0.9})
	if err != nil {
		t.Fatal(err)
	}
	band, err := vol.Band(128, 159)
	if err != nil {
		t.Fatal(err)
	}
	return vol, []struct {
		name string
		r    *region.Region
	}{
		{"box", box}, {"ellipsoid", ell}, {"band-128-159", band},
		{"empty", region.Empty(c)}, {"full", region.Full(c)},
	}
}

// TestRenderMatchesOracle holds Render to the per-voxel oracle byte for
// byte: on the Hilbert, Z and scanline curves at bits 1–7, on every
// shape of renderShapes, both modes and all three axes, for a field
// imported from a decoded Region and one imported from its wire bytes
// (Elias γ, which Render walks straight off the encoding). Below bits 7
// every combination runs; at bits 7, to bound the oracle's time, each
// shape takes one axis and mode in turn, so the seven-bit grid still
// sees every axis and both modes.
func TestRenderMatchesOracle(t *testing.T) {
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline} {
		for bits := 1; bits <= 7; bits++ {
			c := sfc.MustNew(kind, 3, bits)
			vol, shapes := renderShapes(t, c)
			for si, sh := range shapes {
				d, err := volume.Extract(vol, sh.r)
				if err != nil {
					t.Fatal(err)
				}
				fromRegion, _, err := ImportVolume(d)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := rencode.Encode(rencode.Elias, sh.r)
				if err != nil {
					t.Fatal(err)
				}
				fromWire := new(Field)
				st, err := ImportEncoded(fromWire, enc, d.Values)
				if err != nil {
					t.Fatal(err)
				}
				if st.Runs != uint64(sh.r.NumRuns()) || st.Voxels != sh.r.NumVoxels() {
					t.Errorf("%v/%d %s: wire import counts %d runs, %d voxels; the REGION has %d, %d",
						kind, bits, sh.name, st.Runs, st.Voxels, sh.r.NumRuns(), sh.r.NumVoxels())
				}
				for axis := 0; axis < 3; axis++ {
					for _, mode := range []Mode{MIP, Average} {
						if bits == 7 && (axis != si%3 || int(mode) != si%2) {
							continue
						}
						opts := RenderOpts{Axis: axis, Mode: mode}
						want := oracleRender(d, opts)
						for _, f := range []struct {
							source string
							field  *Field
						}{{"region", fromRegion}, {"wire", fromWire}} {
							got, err := f.field.Render(opts)
							if err != nil {
								t.Fatalf("%v/%d %s %s axis %d mode %d: %v", kind, bits, sh.name, f.source, axis, mode, err)
							}
							if !bytes.Equal(got.Pix, want.Pix) {
								t.Fatalf("%v/%d %s from %s, axis %d mode %d: image differs from the per-voxel oracle",
									kind, bits, sh.name, f.source, axis, mode)
							}
						}
					}
				}
			}
		}
	}
}

// TestRenderIntoReusesPix: RenderInto draws into the caller's pixel
// buffer when its capacity holds the image — a buffer full of garbage
// from another render, as a batch's slab hands over — and the image is
// byte for byte a fresh render's, in both modes, with no pixel buffer
// allocated. A nil or too-small Pix gets a new buffer, the same image,
// and is itself left as it was.
func TestRenderIntoReusesPix(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 5)
	side := 1 << c.Bits()
	vol, shapes := renderShapes(t, c)
	garbage := func(n, capacity int) []uint8 {
		b := make([]uint8, capacity)
		for i := range b {
			b[i] = uint8(i*37 + 11)
		}
		return b[:n]
	}
	for _, sh := range shapes {
		d, err := volume.Extract(vol, sh.r)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := rencode.Encode(rencode.Elias, sh.r)
		if err != nil {
			t.Fatal(err)
		}
		field := new(Field)
		if _, err := ImportEncoded(field, enc, d.Values); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{MIP, Average} {
			opts := RenderOpts{Axis: 2, Mode: mode}
			want, err := field.Render(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name  string
				pix   []uint8
				reuse bool
			}{
				{"exact", garbage(side*side, side*side), true},
				{"short-len", garbage(3, side*side), true},
				{"roomy", garbage(side*side, side*side+side), true},
				{"nil", nil, false},
				{"too-small", garbage(side*side-1, side*side-1), false},
			} {
				before := slices.Clone(tc.pix)
				img := Image{W: 1, H: 2, Pix: tc.pix}
				if err := field.RenderInto(&img, opts); err != nil {
					t.Fatal(err)
				}
				if img.W != side || img.H != side || !bytes.Equal(img.Pix, want.Pix) {
					t.Fatalf("%s mode %d, %s Pix: %dx%d image differs from a fresh render", sh.name, mode, tc.name, img.W, img.H)
				}
				if reused := tc.pix != nil && &img.Pix[0] == &tc.pix[0]; reused != tc.reuse {
					t.Errorf("%s mode %d, %s Pix (cap %d): buffer reused %v, want %v", sh.name, mode, tc.name, cap(tc.pix), reused, tc.reuse)
				}
				if !tc.reuse && !bytes.Equal(tc.pix, before) {
					t.Errorf("%s mode %d: a %s Pix was written", sh.name, mode, tc.name)
				}
			}
			fresh := testing.AllocsPerRun(10, func() {
				var img Image
				if err := field.RenderInto(&img, opts); err != nil {
					t.Fatal(err)
				}
			})
			img := Image{Pix: garbage(side*side, side*side)}
			reused := testing.AllocsPerRun(10, func() {
				if err := field.RenderInto(&img, opts); err != nil {
					t.Fatal(err)
				}
			})
			if reused != fresh-1 || (mode == MIP && reused != 0) {
				t.Errorf("%s mode %d: %.0f allocs into a reused Pix, %.0f into a nil one — want one fewer, the pixels, and none for MIP",
					sh.name, mode, reused, fresh)
			}
		}
	}
}

// TestImportEncodedEveryMethod: a REGION in any codec the server sends
// imports and renders as its decoded Region does — γ walked off the
// bytes, naive and the k³-tree decoded first — and Data gives back the
// DataRegion.
func TestImportEncodedEveryMethod(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 4)
	vol, shapes := renderShapes(t, c)
	d, err := volume.Extract(vol, shapes[1].r)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleRender(d, RenderOpts{Axis: 1, Mode: Average})
	for _, m := range rencode.Methods {
		enc, err := rencode.Encode(m, d.Region)
		if err != nil {
			t.Fatal(err)
		}
		f := new(Field)
		st, err := ImportEncoded(f, enc, d.Values)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if st.Runs != uint64(d.Region.NumRuns()) || f.NumVoxels() != d.Region.NumVoxels() {
			t.Errorf("%v: %d runs, %d voxels; want %d, %d", m, st.Runs, f.NumVoxels(), d.Region.NumRuns(), d.Region.NumVoxels())
		}
		img, err := f.Render(RenderOpts{Axis: 1, Mode: Average})
		if err != nil || !bytes.Equal(img.Pix, want.Pix) {
			t.Errorf("%v: render differs from the oracle (err %v)", m, err)
		}
		got, err := f.Data()
		if err != nil || !slices.Equal(got.Region.RunsView(), d.Region.RunsView()) || !bytes.Equal(got.Values, d.Values) {
			t.Errorf("%v: Data() does not give back the DataRegion (err %v)", m, err)
		}
	}
}

// TestImportEncodedRefusesZooMethods: a REGION in any of package zoo's
// codecs, none of which the server sends, is refused with an error
// wrapping rencode.ErrCorrupt.
func TestImportEncodedRefusesZooMethods(t *testing.T) {
	d := sphereData(t, 9)
	for _, m := range []zoo.Method{zoo.EliasDelta, zoo.Golomb, zoo.Varint, zoo.OblongOctant, zoo.Octant} {
		enc, err := zoo.Encode(m, d.Region)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ImportEncoded(new(Field), enc, d.Values); !errors.Is(err, rencode.ErrCorrupt) {
			t.Errorf("%v: ImportEncoded = %v; want a refusal wrapping rencode.ErrCorrupt", m, err)
		}
	}
}

// TestRenderRejectsBadInput: an unknown mode is refused like a bad
// axis, and a wire field whose values and voxels differ in number, or
// whose REGION does not decode, fails typed instead of drawing.
func TestRenderRejectsBadInput(t *testing.T) {
	d := sphereData(t, 9)
	f, _, err := ImportVolume(d)
	if err != nil {
		t.Fatal(err)
	}
	if img, err := f.Render(RenderOpts{Axis: 2, Mode: Mode(2)}); err == nil || img != nil {
		t.Errorf("unknown mode 2: image %v, err %v; want an error", img != nil, err)
	}
	enc, err := rencode.Encode(rencode.Elias, d.Region)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		enc    []byte
		values []byte
		want   error
	}{
		{"values short", enc, d.Values[:len(d.Values)-1], ErrValueCount},
		{"values long", enc, append(slices.Clone(d.Values), 1), ErrValueCount},
		{"no values", enc, nil, ErrValueCount},
		{"truncated stream", enc[:len(enc)-2], d.Values, rencode.ErrCorrupt},
	} {
		f := new(Field)
		_, err := ImportEncoded(f, tc.enc, tc.values)
		imported := err == nil
		if imported {
			_, err = f.Render(RenderOpts{Axis: 2, Mode: MIP})
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want one wrapping %v", tc.name, err, tc.want)
		}
		if err == nil {
			continue
		}
		if imported {
			if _, derr := f.Data(); derr == nil {
				t.Errorf("%s: Data() accepted what Render refused", tc.name)
			}
		}
	}
}

// FuzzRenderEncoded feeds arbitrary encoded-REGION and value bytes to
// the wire import and render. Each input must fail — with an error
// wrapping rencode.ErrCorrupt or ErrValueCount, or with the very error
// decoding the bytes and importing the Region gives (a REGION off the
// 3D grid, say, or a naive run list Refill refuses) — or render exactly
// the image the per-voxel oracle draws from the decoded Region, and
// never panic. Curves past 64³ are skipped: their images are memory,
// not parsing.
//
// The seeds are the four shapes of the render benchmark at Bits 5 —
// ntal1, a box of the Q2 probe's proportions, the full grid and the
// short-run band 128–159 — each whole and truncated, with a zero-length
// delta, a stream that overflows the curve, values one short, and a
// naive encoding.
func FuzzRenderEncoded(f *testing.F) {
	c := sfc.MustNew(sfc.Hilbert, 3, 5)
	vol, shapes := renderShapes(f, c)
	a, err := atlas.Build(c, false)
	if err != nil {
		f.Fatal(err)
	}
	st, err := a.ByName("ntal1")
	if err != nil {
		f.Fatal(err)
	}
	box, err := region.FromBox(c, region.Box{Min: sfc.Pt(6, 6, 6), Max: sfc.Pt(25, 25, 18)})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*region.Region{st.Region, box, region.Full(c), shapes[2].r}
	for _, r := range seeds {
		d, err := volume.Extract(vol, r)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := rencode.Encode(rencode.Elias, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, d.Values)
		f.Add(enc[:len(enc)-1], d.Values)
		f.Add(enc, d.Values[1:])
	}
	// A header of method m on c with count elements.
	header := func(m zoo.Method, count uint64) []byte {
		enc, err := zoo.Encode(m, region.Empty(c))
		if err != nil {
			f.Fatal(err)
		}
		return binary.BigEndian.AppendUint64(enc[:4], count)
	}
	values := []byte{1, 2, 3}
	// One varint delta of 0, refused since varint is none of the wire's
	// codecs, and one γ-coded run of 2^15 + 1 on the 2^15 positions of
	// the curve: 15 zeros, then 1000000000000001.
	f.Add(append(header(zoo.Varint, 1), 0), values)
	f.Add(append(header(zoo.Elias, 1), 0x00, 0x01, 0x00, 0x02), values)
	naive, err := rencode.Encode(rencode.Naive, box)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(naive, bytes.Repeat([]byte{7}, int(box.NumVoxels())))

	f.Fuzz(func(t *testing.T, enc, values []byte) {
		if len(enc) >= 4 && enc[3] > 6 {
			t.Skip("image larger than 64x64")
		}
		var field Field
		var img Image
		_, err := ImportEncoded(&field, enc, values)
		if err == nil {
			err = field.RenderInto(&img, RenderOpts{Axis: 2, Mode: MIP})
		}
		var want *Image
		r, werr := rencode.Decode(enc)
		if werr == nil {
			d := &volume.DataRegion{Region: r, Values: values}
			if _, _, werr = ImportVolume(d); werr == nil {
				want = oracleRender(d, RenderOpts{Axis: 2, Mode: MIP})
			}
		}
		switch {
		case err == nil && werr == nil:
			if !bytes.Equal(img.Pix, want.Pix) {
				t.Fatalf("wire render differs from decode-then-oracle")
			}
		case err == nil:
			t.Fatalf("wire path rendered what decode-then-import refuses: %v", werr)
		case werr == nil:
			t.Fatalf("wire path refused what decode-then-import renders: %v", err)
		case errors.Is(err, rencode.ErrCorrupt) || errors.Is(err, ErrValueCount):
		case err.Error() != werr.Error():
			t.Fatalf("untyped wire error %q; decode-then-import says %q", err, werr)
		}
	})
}
