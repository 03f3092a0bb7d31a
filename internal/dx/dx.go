// Package dx stands in for IBM Data Explorer/6000, the visualization
// front end of the QBISM prototype (Section 5.2): the ImportVolume
// module that converts spatially restricted query results into
// renderable objects, a software renderer producing images from them,
// and the result cache that lets users re-manipulate recent queries
// without a database re-access.
package dx

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// ErrValueCount is wrapped by the errors of a field whose values do not
// match its REGION's voxels one for one.
var ErrValueCount = errors.New("dx: values and voxels differ in number")

// Field is the imported DX object: a (possibly sparse) scalar field over
// the atlas grid, a REGION's voxels with their values in curve order.
// The REGION is a decoded Region (ImportVolume) or the encoded bytes a
// reply carried (ImportEncoded); Render reads its runs through one
// cursor either way.
type Field struct {
	Side   int
	curve  sfc.Curve
	data   *volume.DataRegion // the decoded source, or nil
	enc    []byte             // the encoded source: a delta-coded REGION
	values []byte
	runs   int
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
	f := new(Field)
	if err := importVolume(f, d); err != nil {
		return nil, ImportStats{}, err
	}
	return f, f.importStats(), nil
}

// importVolume is ImportVolume into *f.
func importVolume(f *Field, d *volume.DataRegion) error {
	if d == nil || d.Region == nil {
		return fmt.Errorf("dx: nil data region")
	}
	c := d.Region.Curve()
	if c.Dim() != 3 {
		return fmt.Errorf("dx: need 3D data, got %dD", c.Dim())
	}
	if uint64(len(d.Values)) != d.Region.NumVoxels() {
		return fmt.Errorf("%w: %d values for %d voxels", ErrValueCount, len(d.Values), d.Region.NumVoxels())
	}
	*f = Field{Side: 1 << c.Bits(), curve: c, data: d, values: d.Values, runs: d.Region.NumRuns()}
	return nil
}

// ImportEncoded is ImportVolume on a reply as it crossed the wire, into
// the caller's *f, which it overwrites whole: the encoded REGION of a
// DATA_REGION and its values. An Elias γ REGION, the wire's, is kept as
// it came, and Render walks its runs straight off the bytes
// (rencode.RunReader); no Region is built, and the import allocates
// nothing. The run count is the header's, and the voxel count is
// len(values), which each Render's walk checks against the REGION,
// failing with ErrValueCount on a mismatch. A naive or k³ REGION is
// decoded first and imported as ImportVolume takes it, and any other
// method fails as rencode.Decode refuses it. On an error *f is
// unspecified.
func ImportEncoded(f *Field, enc, values []byte) (ImportStats, error) {
	if m, ok := rencode.MethodOf(enc); !ok || m != rencode.Elias {
		r, err := rencode.Decode(enc)
		if err != nil {
			return ImportStats{}, err
		}
		if err := importVolume(f, &volume.DataRegion{Region: r, Values: values}); err != nil {
			return ImportStats{}, err
		}
		return f.importStats(), nil
	}
	var rd rencode.RunReader
	if err := rd.Reset(enc); err != nil {
		return ImportStats{}, err
	}
	c := rd.Curve()
	if c.Dim() != 3 {
		return ImportStats{}, fmt.Errorf("dx: need 3D data, got %dD", c.Dim())
	}
	*f = Field{Side: 1 << c.Bits(), curve: c, enc: enc, values: values, runs: rd.NumRuns()}
	return f.importStats(), nil
}

func (f *Field) importStats() ImportStats {
	return ImportStats{Voxels: f.NumVoxels(), Runs: uint64(f.runs), Bytes: uint64(len(f.values))}
}

// NumRuns returns the number of runs of the field's REGION.
func (f *Field) NumRuns() int { return f.runs }

// NumVoxels returns the number of voxels of the field: one per value,
// which Render holds the REGION to.
func (f *Field) NumVoxels() uint64 { return uint64(len(f.values)) }

// Stats summarizes the field's values.
func (f *Field) Stats() volume.Stats { return volume.ValueStats(f.values) }

// Data returns the field as a DataRegion. A field ImportVolume made
// returns the one it was given; one ImportEncoded kept encoded decodes
// its REGION on each call, into a new Region.
func (f *Field) Data() (*volume.DataRegion, error) {
	if f.data != nil {
		return f.data, nil
	}
	r, err := rencode.Decode(f.enc)
	if err != nil {
		return nil, err
	}
	if r.NumVoxels() != f.NumVoxels() {
		return nil, fmt.Errorf("%w: %d values for %d voxels", ErrValueCount, len(f.values), r.NumVoxels())
	}
	return &volume.DataRegion{Region: r, Values: f.values}, nil
}

// cursor pulls a Field's runs in curve order from whichever source it
// has: the one seam between the two imports and Render.
type cursor struct {
	runs []region.Run
	rd   rencode.RunReader
	enc  bool
}

// start points cur at f's first run.
func (cur *cursor) start(f *Field) error {
	if f.data != nil {
		cur.runs = f.data.Region.RunsView()
		return nil
	}
	cur.enc = true
	return cur.rd.Reset(f.enc)
}

func (cur *cursor) next() (first, last uint64, ok bool) {
	if cur.enc {
		return cur.rd.Next()
	}
	if len(cur.runs) == 0 {
		return 0, 0, false
	}
	r := cur.runs[0]
	cur.runs = cur.runs[1:]
	return r.Lo, r.Hi, true
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

// WritePGM writes the image in binary PGM (P5) format.
func (img *Image) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	_, err := w.Write(img.Pix)
	return err
}

// Render is RenderInto a new Image.
func (f *Field) Render(opts RenderOpts) (*Image, error) {
	img := new(Image)
	if err := f.RenderInto(img, opts); err != nil {
		return nil, err
	}
	return img, nil
}

// RenderInto projects the field orthographically along the chosen axis
// into the caller's *img, which it overwrites whole: a Side×Side raster.
// The pixels go into img.Pix's storage, cleared first, when its capacity
// holds Side² of them; a nil or shorter Pix is replaced by a new buffer,
// the render's one allocation (Average's sums and counts are two more).
// On an error *img is unspecified.
//
// On a Hilbert or Z curve it walks the curve's digit tree once over the
// field's runs (sfc.WalkRuns), which hands it the coordinates of a whole
// leaf cube at a time; a scanline curve decodes each id on its own. It
// fails with ErrValueCount when the values and the REGION's voxels
// differ in number, and wraps rencode.ErrCorrupt when an encoded REGION
// does not decode.
func (f *Field) RenderInto(img *Image, opts RenderOpts) error {
	if opts.Axis < 0 || opts.Axis > 2 {
		return fmt.Errorf("dx: invalid projection axis %d", opts.Axis)
	}
	if opts.Mode != MIP && opts.Mode != Average {
		return fmt.Errorf("dx: invalid render mode %d", opts.Mode)
	}
	var cur cursor
	if err := cur.start(f); err != nil {
		return err
	}
	pix := img.Pix[:0]
	if n := f.Side * f.Side; cap(pix) >= n {
		pix = pix[:n]
		clear(pix)
	} else {
		pix = make([]uint8, n)
	}
	*img = Image{W: f.Side, H: f.Side, Pix: pix}
	p := newProjector(f.Side, opts.Axis, img.Pix, f.values)
	draw := p.mip
	if opts.Mode == Average {
		p.sum = make([]uint32, f.Side*f.Side)
		p.cnt = make([]uint32, f.Side*f.Side)
		draw = p.average
	}
	if f.curve.Kind() == sfc.Scanline {
		for first, last, ok := cur.next(); ok && !p.short; first, last, ok = cur.next() {
			for id := first; ; id++ {
				draw(id, f.curve.Point(id), 0, 1) // a cube of one voxel, digit 0
				if id == last {
					break
				}
			}
		}
	} else {
		sfc.WalkRuns(f.curve, cur.next, draw)
	}
	if err := cur.rd.Err(); err != nil {
		return err
	}
	if p.short {
		return fmt.Errorf("%w: %d values for a REGION of more voxels", ErrValueCount, len(f.values))
	}
	if len(p.vals) > 0 {
		return fmt.Errorf("%w: %d values for %d voxels", ErrValueCount, len(f.values), len(f.values)-len(p.vals))
	}
	if opts.Mode == Average {
		for i := range img.Pix {
			if p.cnt[i] > 0 {
				img.Pix[i] = uint8(p.sum[i] / p.cnt[i])
			}
		}
	}
	return nil
}

// projector is one Render's state: the values still to draw, the
// image, and Average's sums and counts. The voxel at point q lands on
// pixel top + q.X*stride[0] + q.Y*stride[1] + q.Z*stride[2] (image y
// grows downward), and a voxel of coordinate digit d in a leaf cube off
// its corner's pixel by off[d].
type projector struct {
	vals     []byte
	pix      []uint8
	sum, cnt []uint32
	top      int
	stride   [3]int
	off      [8]int
	short    bool // the values ran out before the REGION's voxels
}

func newProjector(side, axis int, pix, vals []byte) projector {
	p := projector{vals: vals, pix: pix, top: (side - 1) * side}
	switch axis {
	case 0:
		p.stride = [3]int{0, 1, -side}
	case 1:
		p.stride = [3]int{1, 0, -side}
	default:
		p.stride = [3]int{1, -side, 0}
	}
	for d := range p.off {
		a := sfc.DigitStep(3, uint64(d))
		p.off[d] = int(a.X)*p.stride[0] + int(a.Y)*p.stride[1] + int(a.Z)*p.stride[2]
	}
	return p
}

// take hands over the next n values, or none once they have run out.
func (p *projector) take(n int) []byte {
	if n > len(p.vals) {
		p.vals, p.short = nil, true
		return nil
	}
	v := p.vals[:n]
	p.vals = p.vals[n:]
	return v
}

// mip draws the voxels mask picks of the leaf cube at lo, whose
// coordinate digits cs packs (sfc.WalkRuns), into a maximum-intensity
// projection. A whole cube, the common case inside long runs, reads the
// digits in order.
func (p *projector) mip(_ uint64, lo sfc.Point, cs uint64, mask uint8) {
	base := p.top + int(lo.X)*p.stride[0] + int(lo.Y)*p.stride[1] + int(lo.Z)*p.stride[2]
	if mask == 0xFF {
		for _, v := range p.take(8) {
			if i := base + p.off[cs&7]; v > p.pix[i] {
				p.pix[i] = v
			}
			cs >>= 8
		}
		return
	}
	for _, v := range p.take(bits.OnesCount8(mask)) {
		i := base + p.off[cs>>(8*bits.TrailingZeros8(mask))&7]
		mask &= mask - 1
		if v > p.pix[i] {
			p.pix[i] = v
		}
	}
}

// average is mip for the mean-intensity projection: it sums and counts.
func (p *projector) average(_ uint64, lo sfc.Point, cs uint64, mask uint8) {
	base := p.top + int(lo.X)*p.stride[0] + int(lo.Y)*p.stride[1] + int(lo.Z)*p.stride[2]
	for _, v := range p.take(bits.OnesCount8(mask)) {
		i := base + p.off[cs>>(8*bits.TrailingZeros8(mask))&7]
		mask &= mask - 1
		p.sum[i] += uint32(v)
		p.cnt[i]++
	}
}
