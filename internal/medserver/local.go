package medserver

import (
	"fmt"

	"qbism/internal/lfm"
	"qbism/internal/par"
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
// representation the query resolves to and whether it is the mode's
// default or the spec forced it.
func (s *Server) ExplainSpec(spec QuerySpec, analyze bool) ([]string, error) {
	var lines []string
	if spec.HasBand {
		src := "forced"
		if spec.Encoding == "" {
			spec.Encoding = s.BandEncoding()
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
// given encoding. It works in memory of its own, one piece per kind,
// and otherwise allocates only the answer:
//   - it resolves every study's stored band field first — the prepared
//     bandRegion statement, then the field's size — over a bounded pool
//     (workers <= 0 takes Config.Workers);
//   - one buffer of the fields' total size takes them all, each read
//     whole into its own slice (lfm.IO.ReadInto) over the same pool;
//   - rows on the system curve (h-naive, the k³-tree) decode into one
//     run arena sized by rencode.MaxRuns, refilling Regions kept beside
//     the fields in place (rencode.DecodeInto); a row on another curve
//     (z-naive, octant) is then recoded to a new Region, as the
//     nIntersect UDF normalizes it;
//   - region.IntersectN folds them smallest-first into the answer.
//
// The result is identical to the serial SQL plan's, and so are the
// pages: every field is read whole, once.
func (s *Server) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, error) {
	if len(studies) == 0 {
		return nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	if workers <= 0 {
		workers = s.Cfg.Workers
	}
	fields := make([]bandField, len(studies))
	fail := func(i int, err error) error {
		return fmt.Errorf("qbism: study %d band [%d,%d] %s: %w", studies[i], bandLo, bandHi, encoding, err)
	}
	par.Each(len(studies), workers, func(i int) {
		fields[i].h, fields[i].size, fields[i].err = s.resolveBand(studies[i], bandLo, bandHi, encoding)
	})
	total := 0
	for i := range fields {
		if err := fields[i].err; err != nil {
			return nil, fail(i, err)
		}
		total += fields[i].size
	}
	buf := make([]byte, total)
	for i := range fields {
		f := &fields[i]
		f.data, buf = buf[:f.size:f.size], buf[f.size:]
	}
	par.Each(len(studies), workers, func(i int) {
		f := &fields[i]
		io := lfm.IO{M: s.LFM}
		f.data, f.err = io.ReadInto(f.h, f.data)
	})
	runs := 0
	for i := range fields {
		f := &fields[i]
		if f.err == nil {
			f.runs, f.err = rencode.MaxRuns(f.data)
		}
		if f.err != nil {
			return nil, fail(i, f.err)
		}
		runs += f.runs
	}
	arena := make([]region.Run, runs)
	operands := make([]*region.Region, len(studies))
	for i := range fields {
		f, r := &fields[i], &fields[i].region
		if err := rencode.DecodeInto(r, f.data, arena[:f.runs:f.runs]); err != nil {
			return nil, fail(i, err)
		}
		arena, operands[i] = arena[f.runs:], r
		if r.Curve().Kind() != s.Curve.Kind() {
			rec, err := r.Recode(s.Curve)
			if err != nil {
				return nil, fail(i, err)
			}
			operands[i] = rec
		}
	}
	s.metrics.Counter(metricRegionDecodes).Add(int64(len(studies)))
	return region.IntersectN(operands...)
}

// bandField is one study's stored band REGION in ConsistentBandRegion:
// its long field and size, then its bytes, the room its runs take in the
// arena, and the Region they are decoded into.
type bandField struct {
	h      lfm.Handle
	size   int
	data   []byte
	runs   int
	err    error
	region region.Region
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
