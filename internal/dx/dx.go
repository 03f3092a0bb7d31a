// Package dx stands in for IBM Data Explorer/6000, the visualization
// front end of the QBISM prototype (Section 5.2): the ImportVolume
// module that converts spatially restricted query results into
// renderable objects, a software renderer producing images from them,
// and the result cache that lets users re-manipulate recent queries
// without a database re-access.
package dx

import (
	"fmt"
	"io"

	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// Field is the imported DX object: a (possibly sparse) scalar field over
// the atlas grid.
type Field struct {
	Side int
	Data *volume.DataRegion
}

// ImportStats counts the work ImportVolume performed, which the cost
// model prices into the paper's "ImportVolume" column.
type ImportStats struct {
	Voxels uint64
	Runs   uint64
	Bytes  uint64
}

// ImportVolume converts a query result into a Field — our equivalent of
// the custom DX module the paper added to the executive.
func ImportVolume(d *volume.DataRegion) (*Field, ImportStats, error) {
	if d == nil || d.Region == nil {
		return nil, ImportStats{}, fmt.Errorf("dx: nil data region")
	}
	c := d.Region.Curve()
	if c.Dim() != 3 {
		return nil, ImportStats{}, fmt.Errorf("dx: need 3D data, got %dD", c.Dim())
	}
	if uint64(len(d.Values)) != d.Region.NumVoxels() {
		return nil, ImportStats{}, fmt.Errorf("dx: %d values for %d voxels", len(d.Values), d.Region.NumVoxels())
	}
	st := ImportStats{
		Voxels: d.Region.NumVoxels(),
		Runs:   uint64(d.Region.NumRuns()),
		Bytes:  uint64(len(d.Values)),
	}
	return &Field{Side: 1 << c.Bits(), Data: d}, st, nil
}

// Mode selects the projection style.
type Mode int

const (
	// MIP is maximum-intensity projection.
	MIP Mode = iota
	// Average projects the mean intensity along each ray.
	Average
)

// RenderOpts configures Render. Axis selects the projection direction
// (0=X, 1=Y, 2=Z).
type RenderOpts struct {
	Axis int
	Mode Mode
}

// Image is an 8-bit grayscale raster.
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image { return &Image{W: w, H: h, Pix: make([]uint8, w*h)} }

// WritePGM writes the image in binary PGM (P5) format.
func (img *Image) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	_, err := w.Write(img.Pix)
	return err
}

// Render projects the field orthographically along the chosen axis.
func (f *Field) Render(opts RenderOpts) (*Image, error) {
	if opts.Axis < 0 || opts.Axis > 2 {
		return nil, fmt.Errorf("dx: invalid projection axis %d", opts.Axis)
	}
	img := NewImage(f.Side, f.Side)
	var sum []uint32
	var cnt []uint32
	if opts.Mode == Average {
		sum = make([]uint32, f.Side*f.Side)
		cnt = make([]uint32, f.Side*f.Side)
	}
	f.Data.ForEach(func(p sfc.Point, v uint8) bool {
		var u, w int
		switch opts.Axis {
		case 0:
			u, w = int(p.Y), int(p.Z)
		case 1:
			u, w = int(p.X), int(p.Z)
		default:
			u, w = int(p.X), int(p.Y)
		}
		idx := (f.Side-1-w)*f.Side + u // image y grows downward
		switch opts.Mode {
		case MIP:
			if v > img.Pix[idx] {
				img.Pix[idx] = v
			}
		case Average:
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
	return img, nil
}
