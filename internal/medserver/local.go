package medserver

import (
	"cmp"
	"fmt"
	"slices"

	"qbism/internal/lfm"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
)

// Entry points for callers in the server's own process, beside the RPC:
// the plan of a spec's data query, and the multi-study band intersection
// read straight from the stored rows.

// ExplainSpec renders the physical operator tree for the SQL the
// MedicalServer would generate for spec — the visibility hook for
// where the planner placed each spatial predicate relative to the
// extractVoxels() projection. With analyze set the query actually
// executes and each line carries its runtime counters (rows in/out,
// UDF calls, LFM pages charged to that operator's expressions). Band
// queries are prefixed with a "band repr:" line naming the REGION
// representation the query resolves to and whether it is the default or
// the spec forced it.
func (s *Server) ExplainSpec(spec QuerySpec, analyze bool) ([]string, error) {
	var lines []string
	if spec.HasBand {
		defaulted, err := s.resolveBandEncoding(&spec)
		if err != nil {
			return nil, err
		}
		src := "forced"
		if defaulted {
			src = "default"
		}
		lines = append(lines, fmt.Sprintf("band repr: %s (%s)", spec.Encoding, src))
	}
	var binds dataBinds
	shape, args, err := dataQuerySQL(spec, &binds)
	if err != nil {
		return nil, err
	}
	prefix := "explain "
	if analyze {
		prefix = "explain analyze "
	}
	res, err := s.DB.Exec(prefix+dataShapeSQL[shape], args...)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		lines = append(lines, row[0].S)
	}
	return lines, nil
}

// ConsistentBandRegion computes the Table 4 answer — the REGION where
// every listed study has intensities in [bandLo, bandHi] under the
// given encoding, resolved as a band spec's (resolveBandEncoding). It is
// a serial, smallest-first fold over the stored rows:
//   - it resolves every study's stored band field — the prepared
//     bandRegion statement, then the field's size — and orders the
//     fields by size, ties in study order;
//   - it reads each field whole (lfm.IO.ReadInto), in that order, into
//     one buffer sized to the largest, and folds it into the answer
//     (rencode.StoredFold): one walk of each k³-tree's bytes merges it
//     into the intersection so far, and counts as one REGION probe.
//
// Every row is read and checked, even once the answer is empty, so the
// result is identical to the serial SQL plan's, and so are the pages:
// every field is read whole, once. The first row that fails to read or
// parse, or is not a k³-tree, in fold order, ends the call with an error
// naming its study, wrapping the read's or the fold's. A call allocates
// the read buffer, the fold's runs and words (reserve), and the answer;
// the field list of up to eight studies stays on the stack. The server
// ignores workers; the argument stays for its callers.
func (s *Server) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, error) {
	if len(studies) == 0 {
		return nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	spec := QuerySpec{Encoding: encoding}
	if _, err := s.resolveBandEncoding(&spec); err != nil {
		return nil, err
	}
	encoding = spec.Encoding
	fail := func(study int, err error) error {
		return fmt.Errorf("qbism: study %d band [%d,%d] %s: %w", study, bandLo, bandHi, encoding, err)
	}
	var few [8]bandField
	fields := few[:]
	if len(studies) > len(few) {
		fields = make([]bandField, len(studies))
	}
	fields = fields[:len(studies)]
	largest := 0
	for i, study := range studies {
		h, size, err := s.resolveBand(study, bandLo, bandHi, encoding)
		if err != nil {
			return nil, fail(study, err)
		}
		fields[i] = bandField{study: study, h: h, size: size}
		largest = max(largest, size)
	}
	slices.SortStableFunc(fields, func(a, b bandField) int { return cmp.Compare(a.size, b.size) })
	buf := make([]byte, largest)
	io := lfm.IO{M: s.LFM}
	var fold rencode.StoredFold
	for _, f := range fields {
		data, err := io.ReadInto(f.h, buf)
		if err == nil {
			err = fold.Intersect(data)
		}
		if err != nil {
			return nil, fail(f.study, err)
		}
	}
	s.metrics.Counter(metricRegionProbes).Add(int64(len(fields)))
	return fold.Region(), nil
}

// bandField is one study's stored band REGION in ConsistentBandRegion:
// its long field and the field's size.
type bandField struct {
	study int
	h     lfm.Handle
	size  int
}

// resolveBand finds one study's stored band REGION: its long field and
// the field's size.
func (s *Server) resolveBand(studyID, bandLo, bandHi int, encoding string) (lfm.Handle, int, error) {
	var row [1]sdb.Value
	n, err := querySingle(nil, nil, s.stmts.bandRegion, row[:],
		sdb.Int(int64(studyID)), sdb.Int(int64(bandLo)), sdb.Int(int64(bandHi)),
		sdb.Str(encoding))
	if err != nil {
		return 0, 0, err
	}
	if n != 1 {
		return 0, 0, fmt.Errorf("no stored intensityBand row")
	}
	if row[0].T != sdb.TLong {
		return 0, 0, fmt.Errorf("stored band REGION is %s, want a LONG field", row[0].T)
	}
	size, err := s.LFM.Size(row[0].L)
	return row[0].L, int(size), err
}
