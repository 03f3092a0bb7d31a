package medserver

import (
	"cmp"
	"fmt"
	"slices"

	"qbism/internal/lfm"
	"qbism/internal/obs"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/transport"
)

// The population query, served by ServeRPC, and an entry point for
// callers in the server's own process: the plan of a spec's data query.

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
	shape, args, err := dataQuerySQL(spec, spec.Box, &binds)
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

// PopulationMethod is the wire method name of the population query.
const PopulationMethod = "consistentBandRegion"

// PopulationQuery is the population question — where does every listed
// study have intensities in [BandLo, BandHi]? — as its request carries
// it. Encoding names the band row as a band spec's does: empty,
// EncK3Tree or its synonym EncHilbertNaive (resolveBandEncoding).
type PopulationQuery struct {
	Studies        []int
	BandLo, BandHi int
	Encoding       string
}

// handlePopulation is the population RPC handler. It decodes the framed
// PopulationQuery, up to eight studies onto its stack, computes the
// Table 4 answer — the REGION where every listed study has intensities
// in the band under the given encoding, resolved as a band spec's — and
// frames it as the reply: no header, and the answer in the wire codec
// (Config.Method). The answer is a serial, smallest-first fold over the
// stored rows:
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
// every field is read whole, once; no VOLUME page is read. The first row
// that fails to read or parse, or is not a k³-tree, in fold order, ends
// the call with an error naming its study, wrapping the read's or the
// fold's. A call takes every buffer it builds in from the server's free
// lists (replies.go) and allocates none of its own: the read buffer; the
// fold's run and word slabs (StoredFold.Runs and Words), and the
// answer's runs, built in the fold's spare room when they fit and in a
// run list from the list otherwise (StoredFold.RegionInto). The reply is
// encoded into the read buffer, which grows only when the reply outgrows
// it, and is the caller's, as a medical query's is; the fold's memory
// goes back to the lists once the reply is encoded. The field list of up
// to eight studies stays on the stack.
func (s *Server) handlePopulation(sp *obs.Span, request []byte) ([]byte, error) {
	var ids [8]int
	var q PopulationQuery
	studies, err := decodePopulationRequest(&q, request, s.names, ids[:0])
	if err != nil {
		return nil, err
	}
	spec := QuerySpec{Encoding: q.Encoding}
	if _, err := s.resolveBandEncoding(&spec); err != nil {
		return nil, err
	}
	fail := func(study int, err error) error {
		return fmt.Errorf("qbism: study %d band [%d,%d] %s: %w", study, q.BandLo, q.BandHi, spec.Encoding, err)
	}
	var few [8]bandField
	fields := few[:]
	if len(studies) > len(few) {
		fields = make([]bandField, len(studies))
	}
	fields = fields[:len(studies)]
	// An empty answer's reply fits the buffer whatever the fields' sizes.
	largest := transport.FrameOverhead + rencode.HeaderLen
	for i, study := range studies {
		h, size, err := s.resolveBand(study, q.BandLo, q.BandHi, spec.Encoding)
		if err != nil {
			return nil, fail(study, err)
		}
		fields[i] = bandField{study: study, h: h, size: size}
		largest = max(largest, size)
	}
	slices.SortStableFunc(fields, func(a, b bandField) int { return cmp.Compare(a.size, b.size) })
	buf := s.free.bytes.Get(largest)
	io := lfm.IO{M: s.LFM}
	fold := rencode.StoredFold{Runs: &s.free.runs, Words: &s.free.words}
	defer fold.Release()
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
	sp.SetInt("lfm.pages", int64(io.PageReads))
	sp.SetInt("lfm.reads", int64(io.Reads))
	var answer region.Region
	fold.RegionInto(&answer)
	reply, err := rencode.AppendEncode(buf[:transport.FrameOverhead], s.Cfg.Method, &answer)
	if err != nil {
		return nil, err
	}
	return transport.SealFrame(reply, 0)
}

// bandField is one study's stored band REGION in handlePopulation: its
// long field and the field's size.
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
