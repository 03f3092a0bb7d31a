package volume

import (
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// The paper notes its techniques "can be extended to handle fields of
// dimensionalities other than 3 in a straightforward manner"; these
// tests exercise the full 2D path: scanline import, banding, region
// algebra and extraction on a 2D Hilbert curve (e.g. a single image
// slice, or the paper's 1-d stock-price example generalized).

var h2d = sfc.MustNew(sfc.Hilbert, 2, 5) // 32x32 image

func TestVolume2DRoundTrip(t *testing.T) {
	scan := make([]byte, h2d.Length())
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			scan[y*32+x] = uint8(x * 8)
		}
	}
	v, err := FromScanline(h2d, scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint32{0, 7, 31} {
		if got := valueAt(v, sfc.Pt(x, 5, 0)); got != uint8(x*8) {
			t.Errorf("value at (%d,5) = %d, want %d", x, got, x*8)
		}
	}
}

func TestVolume2DBandAndExtract(t *testing.T) {
	v := FromFunc(h2d, func(p sfc.Point) uint8 { return uint8(p.X * 8) })
	band, err := v.Band(128, 255)
	if err != nil {
		t.Fatal(err)
	}
	// x >= 16 qualifies: half the image.
	if band.NumVoxels() != 16*32 {
		t.Errorf("band voxels = %d, want 512", band.NumVoxels())
	}
	// Intersect with a 2D box region and extract.
	box, err := region.FromBox(h2d, region.Box{Min: sfc.Pt(10, 10, 0), Max: sfc.Pt(20, 20, 0)})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := region.Intersect(band, box)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Extract(v, mixed)
	if err != nil {
		t.Fatal(err)
	}
	// x in 16..20, y in 10..20 -> 5*11 voxels.
	if d.NumVoxels() != 5*11 {
		t.Errorf("extracted %d voxels, want 55", d.NumVoxels())
	}
	eachPoint(d, func(p sfc.Point, val uint8) {
		if val < 128 {
			t.Fatalf("voxel %v below band: %d", p, val)
		}
	})
}

func TestVolume2DHilbertClustering(t *testing.T) {
	// The Hilbert advantage holds in 2D too: a disc fragments into fewer
	// h-runs than z-runs.
	z2d := sfc.MustNew(sfc.ZOrder, 2, 5)
	disc, err := region.FromEllipsoid(h2d, region.Ellipsoid{CX: 16, CY: 16, CZ: 0, RX: 10, RY: 10, RZ: 1})
	if err != nil {
		t.Fatal(err)
	}
	zdisc, err := disc.Recode(z2d)
	if err != nil {
		t.Fatal(err)
	}
	if disc.NumRuns() >= zdisc.NumRuns() {
		t.Errorf("2D h-runs %d not fewer than z-runs %d", disc.NumRuns(), zdisc.NumRuns())
	}
}
