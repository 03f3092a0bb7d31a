package medserver

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"qbism/internal/lfm"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/volume"
)

// dataRegionTag marks a marshaled DataRegion blob (the DATA_REGION type
// of the paper's footnote 6).
const dataRegionTag = 0xD7

// MarshalDataRegion serializes a DataRegion: the REGION (self-describing
// rencode encoding) followed by the intensity values in curve order. The
// blob is new, and the caller's.
func MarshalDataRegion(d *volume.DataRegion, method rencode.Method) ([]byte, error) {
	return marshalDataRegion(nil, d, method)
}

// marshalDataRegion is MarshalDataRegion with the blob taken from p.
func marshalDataRegion(p *freeList[byte], d *volume.DataRegion, method rencode.Method) ([]byte, error) {
	blob, values, err := newDataRegionBlob(p, d.Region, method)
	if err != nil {
		return nil, err
	}
	if len(d.Values) != len(values) {
		return nil, fmt.Errorf("qbism: %d values for %d voxels", len(d.Values), len(values))
	}
	copy(values, d.Values)
	return blob, nil
}

// newDataRegionBlob takes the DATA_REGION blob that carries r from p's
// free list — a new buffer when the list has none of its size, or p is
// nil — once and at its final size, and encodes r straight into it. It
// returns the blob and its value section — r.NumVoxels() bytes, in curve
// order, which the caller must fill, since a recycled buffer holds an
// earlier reply's bytes. The blob has at least replyHeadroom bytes of
// spare capacity past its end, where EncodeQueryResponse frames the reply
// in place. The blob is the caller's: the reply it becomes goes back to
// the list only through Server.ReleaseReply.
func newDataRegionBlob(p *freeList[byte], r *region.Region, method rencode.Method) (blob, values []byte, err error) {
	n, err := rencode.EncodedSize(method, r)
	if err != nil {
		return nil, nil, err
	}
	size := 5 + uint64(n) + r.NumVoxels()
	blob = p.Get(int(size + replyHeadroom))[:5]
	blob[0] = dataRegionTag
	binary.BigEndian.PutUint32(blob[1:], uint32(n))
	if blob, err = rencode.AppendEncode(blob, method, r); err != nil {
		return nil, nil, err
	}
	if len(blob) != 5+n {
		return nil, nil, fmt.Errorf("qbism: REGION encoded to %d bytes, sized at %d", len(blob)-5, n)
	}
	return blob[:size], blob[5+n : size], nil
}

// UnmarshalDataRegion reverses MarshalDataRegion. The DataRegion and its
// Region are one allocation; the run list is the other.
func UnmarshalDataRegion(data []byte) (*volume.DataRegion, error) {
	enc, values, err := SplitDataRegion(data)
	if err != nil {
		return nil, err
	}
	d := new(struct {
		volume.DataRegion
		r region.Region
	})
	if err := rencode.DecodeInto(&d.r, enc, nil); err != nil {
		return nil, err
	}
	if uint64(len(values)) != d.r.NumVoxels() {
		return nil, fmt.Errorf("qbism: DataRegion has %d values for %d voxels", len(values), d.r.NumVoxels())
	}
	d.DataRegion = volume.DataRegion{Region: &d.r, Values: values}
	return &d.DataRegion, nil
}

// SplitDataRegion splits a MarshalDataRegion blob, in place, into its
// encoded REGION and its values, decoding neither: what a client that
// renders the REGION straight from its encoding imports.
func SplitDataRegion(data []byte) (enc, values []byte, err error) {
	if len(data) < 5 || data[0] != dataRegionTag {
		return nil, nil, fmt.Errorf("qbism: not a DataRegion blob")
	}
	encLen := binary.BigEndian.Uint32(data[1:5])
	if uint64(len(data)) < 5+uint64(encLen) {
		return nil, nil, fmt.Errorf("qbism: DataRegion region encoding truncated")
	}
	return data[5 : 5+encLen], data[5+encLen:], nil
}

// ExtractOpts tunes the physical read plan of ExtractStoredOpts.
type ExtractOpts struct {
	// GapPages is the largest page gap between two run ranges worth
	// reading through rather than issuing a separate read: ranges
	// separated by at most GapPages unneeded pages are coalesced into one
	// contiguous fetch. Zero reproduces the seed plan (merge only
	// adjacent/overlapping ranges), and math.MaxUint64 reads every run in
	// one fetch. The break-even value for a given device is
	// costmodel.CoalesceGapPages — the mingap analysis of region/approx.go
	// applied to device seeks instead of run encoding.
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
// gathered from the range that covers them). It is exported for the
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
	if err := extractInto(io, h, r, opts, values); err != nil {
		return nil, err
	}
	return &volume.DataRegion{Region: r, Values: values}, nil
}

// extractStoredBlob is extractStored and MarshalDataRegion in one
// step, which is how the server answers: the voxels are gathered from
// the LFM's pages into the DATA_REGION blob's value section, taken from
// p (newDataRegionBlob), and are not copied again.
func extractStoredBlob(p *freeList[byte], io *lfm.IO, h lfm.Handle, r *region.Region, opts ExtractOpts, method rencode.Method) ([]byte, error) {
	blob, values, err := newDataRegionBlob(p, r, method)
	if err != nil {
		return nil, err
	}
	if err := extractInto(io, h, r, opts, values); err != nil {
		return nil, err
	}
	return blob, nil
}

// extractInto fills values, r.NumVoxels() bytes, with the voxels of r
// read from the stored VOLUME h on io's bill. The runs of r are grouped
// into page ranges, a run joining the range before it when it starts at
// most opts.GapPages unneeded pages past that range's last page (one wide
// transfer beats an extra seek; the test saturates, so no gap wraps
// round). Each group is one gathering LFM read (lfm.IO.ReadRunsInto) of
// the whole pages it spans, clamped to the field size, whose runs land
// straight in their place in values.
func extractInto(io *lfm.IO, h lfm.Handle, r *region.Region, opts ExtractOpts, values []byte) error {
	size, err := io.M.Size(h)
	if err != nil {
		return err
	}
	if size != r.Curve().Length() {
		return fmt.Errorf("qbism: volume field has %d bytes, curve expects %d", size, r.Curve().Length())
	}
	runs := r.RunsView()
	// A run's page is its offset shifted by the page size's log: pages
	// are a power of two, and a division per run is a measurable share
	// of a short-run extraction.
	shift := bits.TrailingZeros64(io.M.PageSize())
	// reach is how many pages past a range's last page the next run may
	// start and still join it.
	reach := opts.GapPages + 1
	if reach == 0 {
		reach = math.MaxUint64
	}
	for i := 0; i < len(runs); {
		last := runs[i].Hi >> shift
		n := runs[i].Len()
		j := i + 1
		// Runs are sorted and disjoint, so runs[j] starts on or past last.
		for ; j < len(runs) && runs[j].Lo>>shift-last <= reach; j++ {
			last = runs[j].Hi >> shift
			n += runs[j].Len()
		}
		if err := io.ReadRunsInto(h, runs[i:j], values[:n]); err != nil {
			return err
		}
		values = values[n:]
		i = j
	}
	return nil
}
