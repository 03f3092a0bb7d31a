package medserver

import (
	"encoding/binary"
	"fmt"

	"qbism/internal/lfm"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/volume"
)

// dataRegionTag marks a marshaled DataRegion blob (the DATA_REGION type
// of the paper's footnote 6).
const dataRegionTag = 0xD7

// MarshalDataRegion serializes a DataRegion: the REGION (self-describing
// rencode encoding) followed by the intensity values in curve order.
func MarshalDataRegion(d *volume.DataRegion, method rencode.Method) ([]byte, error) {
	blob, values, err := newDataRegionBlob(d.Region, method)
	if err != nil {
		return nil, err
	}
	if len(d.Values) != len(values) {
		return nil, fmt.Errorf("qbism: %d values for %d voxels", len(d.Values), len(values))
	}
	copy(values, d.Values)
	return blob, nil
}

// newDataRegionBlob allocates the DATA_REGION blob that carries r, once
// and at its final size, and encodes r straight into it. It returns the
// blob and its value section — r.NumVoxels() bytes, in curve order, for
// the caller to fill.
func newDataRegionBlob(r *region.Region, method rencode.Method) (blob, values []byte, err error) {
	n, err := rencode.EncodedSize(method, r)
	if err != nil {
		return nil, nil, err
	}
	blob = make([]byte, 5, 5+uint64(n)+r.NumVoxels())
	blob[0] = dataRegionTag
	binary.BigEndian.PutUint32(blob[1:], uint32(n))
	if blob, err = rencode.AppendEncode(blob, method, r); err != nil {
		return nil, nil, err
	}
	if len(blob) != 5+n {
		return nil, nil, fmt.Errorf("qbism: REGION encoded to %d bytes, sized at %d", len(blob)-5, n)
	}
	return blob[:cap(blob)], blob[5+n : cap(blob)], nil
}

// UnmarshalDataRegion reverses MarshalDataRegion.
func UnmarshalDataRegion(data []byte) (*volume.DataRegion, error) {
	if len(data) < 5 || data[0] != dataRegionTag {
		return nil, fmt.Errorf("qbism: not a DataRegion blob")
	}
	encLen := binary.BigEndian.Uint32(data[1:5])
	if uint64(len(data)) < 5+uint64(encLen) {
		return nil, fmt.Errorf("qbism: DataRegion region encoding truncated")
	}
	r, err := rencode.Decode(data[5 : 5+encLen])
	if err != nil {
		return nil, err
	}
	values := data[5+encLen:]
	if uint64(len(values)) != r.NumVoxels() {
		return nil, fmt.Errorf("qbism: DataRegion has %d values for %d voxels", len(values), r.NumVoxels())
	}
	return &volume.DataRegion{Region: r, Values: values}, nil
}

// ExtractOpts tunes the physical read plan of ExtractStoredOpts.
type ExtractOpts struct {
	// GapPages is the largest page gap between two run ranges worth
	// reading through rather than issuing a separate read: ranges
	// separated by at most GapPages unneeded pages are coalesced into one
	// contiguous fetch. Zero reproduces the seed plan (merge only
	// adjacent/overlapping ranges). The break-even value for a given
	// device is costmodel.CoalesceGapPages — the mingap analysis of
	// region/approx.go applied to device seeks instead of run encoding.
	GapPages uint64
}

// ExtractStoredOpts performs EXTRACT_DATA against a VOLUME stored in a
// long field, with page-coalesced I/O: the runs of the region are mapped
// to 4 KB page ranges, adjacent ranges are merged, and each merged range
// is fetched with a single LFM read. Because VOLUMEs are stored in
// Hilbert order, a spatially clustered region touches few distinct pages
// — this is precisely the mechanism behind the paper's low "LFM Disk
// I/Os" counts for spatial queries. The result is byte-identical for
// every opts value; only the number and size of device reads change
// (coalescing only ever widens a fetched range, and runs are always
// assembled from the range that covers them). It is exported for the
// benchmark harness and for callers composing their own storage layers.
func ExtractStoredOpts(m *lfm.Manager, h lfm.Handle, r *region.Region, opts ExtractOpts) (*volume.DataRegion, error) {
	return extractStored(&lfm.IO{M: m}, h, r, opts)
}

// extractStored is ExtractStoredOpts with its reads on io's bill.
func extractStored(io *lfm.IO, h lfm.Handle, r *region.Region, opts ExtractOpts) (*volume.DataRegion, error) {
	var values []byte
	if r.NumRuns() > 0 {
		values = make([]byte, r.NumVoxels())
	}
	if err := extractInto(io, h, r, opts, values, nil); err != nil {
		return nil, err
	}
	return &volume.DataRegion{Region: r, Values: values}, nil
}

// extractStoredBlob is extractStored and MarshalDataRegion in one
// step, which is how the server answers: the voxels go from the LFM's
// pages into the DATA_REGION blob's value section and are not copied
// again. rng is extractInto's range buffer.
func extractStoredBlob(io *lfm.IO, h lfm.Handle, r *region.Region, opts ExtractOpts, method rencode.Method, rng *[]byte) ([]byte, error) {
	blob, values, err := newDataRegionBlob(r, method)
	if err != nil {
		return nil, err
	}
	if err := extractInto(io, h, r, opts, values, rng); err != nil {
		return nil, err
	}
	return blob, nil
}

// extractInto fills values, r.NumVoxels() bytes, with the voxels of r
// read from the stored VOLUME h on io's bill. The runs of r are mapped to
// page-aligned ranges, merging through gaps of up to opts.GapPages pages
// (one wide transfer beats an extra seek), and every range is one LFM
// read of whole pages, clamped to the field size. A range that one run
// covers exactly is read straight into values; any other goes through
// one buffer, reused from range to range, that its runs are copied out
// of: *rng, grown in place, when the caller keeps one between calls, a
// buffer of this call's otherwise (rng nil).
func extractInto(io *lfm.IO, h lfm.Handle, r *region.Region, opts ExtractOpts, values []byte, rng *[]byte) error {
	size, err := io.M.Size(h)
	if err != nil {
		return err
	}
	if size != r.Curve().Length() {
		return fmt.Errorf("qbism: volume field has %d bytes, curve expects %d", size, r.Curve().Length())
	}
	runs := r.RunsView()
	pageSize := io.M.PageSize()
	var own []byte
	if rng == nil {
		rng = &own
	}
	for i := 0; i < len(runs); {
		first, last := runs[i].Lo/pageSize, runs[i].Hi/pageSize // page numbers, inclusive
		j := i + 1
		for ; j < len(runs) && runs[j].Lo/pageSize <= last+1+opts.GapPages; j++ {
			last = max(last, runs[j].Hi/pageSize)
		}
		off := first * pageSize
		n := min((last-first+1)*pageSize, size-off)
		if j == i+1 && runs[i].Lo == off && runs[i].Hi-off+1 == n {
			if err := io.ReadAtInto(h, off, values[:n]); err != nil {
				return err
			}
			values = values[n:]
		} else {
			if uint64(cap(*rng)) < n {
				*rng = make([]byte, n)
			}
			buf := (*rng)[:n]
			if err := io.ReadAtInto(h, off, buf); err != nil {
				return err
			}
			for _, run := range runs[i:j] {
				values = values[copy(values, buf[run.Lo-off:run.Hi-off+1]):]
			}
		}
		i = j
	}
	return nil
}
