// Package volume implements the VOLUME data type of the QBISM paper: a
// complete 3D scalar field sampled on a regular cubic grid, stored as a
// linearized list of intensity values whose positions are implied by a
// space-filling curve order (Section 4.1).
//
// The paper stores volumes in Hilbert order for spatial clustering; this
// package supports any sfc.Curve so the orderings can be compared.
package volume

import (
	"fmt"

	"qbism/internal/par"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

// Volume is a scalar field over the full grid of a curve, one 8-bit
// intensity per voxel (the paper's studies are 8 bits deep), stored in
// curve order.
type Volume struct {
	curve sfc.Curve
	data  []byte
}

// New wraps data (already in curve order) as a Volume. The slice is
// retained, not copied; it must have exactly curve.Length() bytes.
func New(c sfc.Curve, data []byte) (*Volume, error) {
	if uint64(len(data)) != c.Length() {
		return nil, fmt.Errorf("volume: data length %d != curve length %d", len(data), c.Length())
	}
	return &Volume{curve: c, data: data}, nil
}

// FromScanline reorders a scanline-order (x fastest) sample array into
// curve order — the transformation applied when a raw or warped study is
// loaded into the database.
func FromScanline(c sfc.Curve, scan []byte) (*Volume, error) {
	if uint64(len(scan)) != c.Length() {
		return nil, fmt.Errorf("volume: scanline length %d != curve length %d", len(scan), c.Length())
	}
	if c.Kind() == sfc.Scanline {
		out := make([]byte, len(scan))
		copy(out, scan)
		return &Volume{curve: c, data: out}, nil
	}
	lin := sfc.MustNew(sfc.Scanline, c.Dim(), c.Bits())
	data := make([]byte, len(scan))
	par.For(len(data), reorderGrain, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			data[id] = scan[lin.ID(c.Point(uint64(id)))]
		}
	})
	return &Volume{curve: c, data: data}, nil
}

// reorderGrain is the fewest ids worth handing to another goroutine: a
// 32^3 grid, tens of microseconds of curve decoding.
const reorderGrain = 1 << 15

// FromFunc samples f over the grid into a volume in curve order.
func FromFunc(c sfc.Curve, f func(p sfc.Point) uint8) *Volume {
	data := make([]byte, c.Length())
	for id := uint64(0); id < c.Length(); id++ {
		data[id] = f(c.Point(id))
	}
	return &Volume{curve: c, data: data}
}

// Curve returns the storage order of the volume.
func (v *Volume) Curve() sfc.Curve { return v.curve }

// Bytes returns the underlying intensity array in curve order. Callers
// must treat it as read-only.
func (v *Volume) Bytes() []byte { return v.data }

// NumVoxels returns the total voxel count.
func (v *Volume) NumVoxels() uint64 { return uint64(len(v.data)) }

// ValueAtID returns the intensity at curve position id — the "efficient
// random access" requirement of Section 4.1.
func (v *Volume) ValueAtID(id uint64) uint8 { return v.data[id] }

// ValueAt returns the intensity at a grid point.
func (v *Volume) ValueAt(p sfc.Point) uint8 { return v.data[v.curve.ID(p)] }

// Recode re-linearizes the volume onto another curve over the same grid.
func (v *Volume) Recode(to sfc.Curve) (*Volume, error) {
	if to.Dim() != v.curve.Dim() || to.Bits() != v.curve.Bits() {
		return nil, fmt.Errorf("volume: cannot recode between grids %dD/%db and %dD/%db",
			v.curve.Dim(), v.curve.Bits(), to.Dim(), to.Bits())
	}
	data := make([]byte, len(v.data))
	for id := uint64(0); id < to.Length(); id++ {
		data[id] = v.data[v.curve.ID(to.Point(id))]
	}
	return &Volume{curve: to, data: data}, nil
}

// Histogram returns the 256-bin intensity histogram of the volume.
func (v *Volume) Histogram() [256]uint64 {
	var h [256]uint64
	for _, b := range v.data {
		h[b]++
	}
	return h
}

// Band returns the intensity-band REGION of voxels with intensity in
// [lo, hi] (Section 3.3's Intensity Band entity).
func (v *Volume) Band(lo, hi uint8) (*region.Region, error) {
	if lo > hi {
		return nil, fmt.Errorf("volume: inverted band [%d,%d]", lo, hi)
	}
	var runs []region.Run
	inRun := false
	var cur region.Run
	for id := uint64(0); id < uint64(len(v.data)); id++ {
		val := v.data[id]
		if val >= lo && val <= hi {
			if !inRun {
				cur = region.Run{Lo: id, Hi: id}
				inRun = true
			} else {
				cur.Hi = id
			}
		} else if inRun {
			runs = append(runs, cur)
			inRun = false
		}
	}
	if inRun {
		runs = append(runs, cur)
	}
	return region.FromRuns(v.curve, runs)
}

// BandSpec describes one uniform intensity band.
type BandSpec struct {
	Lo, Hi uint8
	Region *region.Region
}

// UniformBands partitions the 0-255 intensity range into bands of the
// given width (the paper uses width 32, producing 8 bands) and returns
// the band REGIONs in increasing intensity order.
func (v *Volume) UniformBands(width int) ([]BandSpec, error) {
	if width < 1 || width > 256 || 256%width != 0 {
		return nil, fmt.Errorf("volume: band width %d must divide 256", width)
	}
	// One pass: consecutive ids in the same band extend its open run, a
	// change of band closes it — the maximal runs Band finds per band.
	runs := make([][]region.Run, 256/width)
	cur, start := -1, uint64(0)
	for id, val := range v.data {
		if b := int(val) / width; b != cur {
			if cur >= 0 {
				runs[cur] = append(runs[cur], region.Run{Lo: start, Hi: uint64(id) - 1})
			}
			cur, start = b, uint64(id)
		}
	}
	if cur >= 0 {
		runs[cur] = append(runs[cur], region.Run{Lo: start, Hi: uint64(len(v.data)) - 1})
	}
	bands := make([]BandSpec, len(runs))
	for b, rs := range runs {
		r, err := region.FromRuns(v.curve, rs)
		if err != nil {
			return nil, err
		}
		bands[b] = BandSpec{Lo: uint8(b * width), Hi: uint8(b*width + width - 1), Region: r}
	}
	return bands, nil
}
