package volume

import (
	"fmt"
	"slices"

	"qbism/internal/region"
)

// DataRegion pairs a REGION with the intensity values of its voxels —
// the return type of the paper's EXTRACT_DATA operator (the DATA_REGION
// type of footnote 6). Values are stored in curve order, aligned with
// the region's run list.
type DataRegion struct {
	Region *region.Region
	Values []byte
}

// Extract implements EXTRACT_DATA(VOLUME v, REGION r): the intensity
// values from v at exactly the voxels of r. The volume and region must
// be on the same curve so the extraction is a sequence of contiguous
// copies, one per run — this is why clustering (few runs) matters.
func Extract(v *Volume, r *region.Region) (*DataRegion, error) {
	rc, vc := r.Curve(), v.Curve()
	if rc.Kind() != vc.Kind() || rc.Dim() != vc.Dim() || rc.Bits() != vc.Bits() {
		return nil, fmt.Errorf("volume: extract region on %s/%db from volume on %s/%db",
			rc.Kind(), rc.Bits(), vc.Kind(), vc.Bits())
	}
	out := make([]byte, 0, r.NumVoxels())
	for _, run := range r.Runs() {
		out = append(out, v.data[run.Lo:run.Hi+1]...)
	}
	return &DataRegion{Region: r, Values: out}, nil
}

// NumVoxels returns the number of (voxel, value) pairs.
func (d *DataRegion) NumVoxels() uint64 { return uint64(len(d.Values)) }

// ValueAtID returns the intensity at curve position id and whether the
// position is inside the data region.
func (d *DataRegion) ValueAtID(id uint64) (uint8, bool) {
	idx := 0
	for _, run := range d.Region.Runs() {
		if id < run.Lo {
			return 0, false
		}
		if id <= run.Hi {
			return d.Values[idx+int(id-run.Lo)], true
		}
		idx += int(run.Len())
	}
	return 0, false
}

// Stats summarizes the values of a data region.
type Stats struct {
	N         uint64
	Min, Max  uint8
	Mean      float64
	Histogram [256]uint64
}

// Stats computes summary statistics over the extracted values.
func (d *DataRegion) Stats() Stats { return ValueStats(d.Values) }

// ValueStats computes summary statistics over a list of intensities.
func ValueStats(values []byte) Stats {
	s := Stats{N: uint64(len(values))}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	var total uint64
	for _, v := range values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		total += uint64(v)
		s.Histogram[v]++
	}
	s.Mean = float64(total) / float64(s.N)
	return s
}

// Filter returns the sub-DataRegion of voxels whose value lies in
// [lo, hi] — the post-extraction half of a mixed query. Each input run
// is scanned over its slice of Values, and a stretch of kept voxels
// becomes one output run: runs come out sorted, and never touch across
// input runs, which are apart already.
func (d *DataRegion) Filter(lo, hi uint8) (*DataRegion, error) {
	if lo > hi {
		return nil, fmt.Errorf("volume: inverted filter band [%d,%d]", lo, hi)
	}
	w := hi - lo // v is in [lo, hi] when v-lo <= w, in byte arithmetic
	var runs []region.Run
	var vals []byte
	values := d.Values
	for _, run := range d.Region.RunsView() {
		seg := values[:run.Len()]
		values = values[len(seg):]
		for i := 0; i < len(seg); {
			for i < len(seg) && seg[i]-lo > w {
				i++
			}
			start := i
			for i < len(seg) && seg[i]-lo <= w {
				i++
			}
			if i > start {
				runs = appendDoubling(runs, region.Run{Lo: run.Lo + uint64(start), Hi: run.Lo + uint64(i) - 1})
				vals = appendDoubling(vals, seg[start:i]...)
			}
		}
	}
	r, err := region.FromOwnedRuns(d.Region.Curve(), runs)
	if err != nil {
		return nil, err
	}
	return &DataRegion{Region: r, Values: vals}, nil
}

// appendDoubling is append that at least doubles a full slice: a noisy
// band has thousands of short runs, and append's gentler growth past 256
// elements would allocate several times as often and as much.
func appendDoubling[E any](s []E, es ...E) []E {
	if cap(s)-len(s) < len(es) {
		s = slices.Grow(s, max(len(s), len(es), 64))
	}
	return append(s, es...)
}

// VoxelwiseMean computes, over the voxels of r, the per-voxel average
// intensity across several volumes — the paper's envisioned "display the
// voxel-wise average intensity inside ntal for these 1,000 PET studies".
// All volumes must share r's curve.
func VoxelwiseMean(r *region.Region, vols []*Volume) (*DataRegion, error) {
	if len(vols) == 0 {
		return nil, fmt.Errorf("volume: VoxelwiseMean needs at least one volume")
	}
	sums := make([]uint32, r.NumVoxels())
	for _, v := range vols {
		d, err := Extract(v, r)
		if err != nil {
			return nil, err
		}
		for i, b := range d.Values {
			sums[i] += uint32(b)
		}
	}
	out := make([]byte, len(sums))
	n := uint32(len(vols))
	for i, s := range sums {
		out[i] = uint8(s / n)
	}
	return &DataRegion{Region: r, Values: out}, nil
}
