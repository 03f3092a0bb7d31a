package medserver

import (
	"fmt"

	"qbism/internal/lfm"
	"qbism/internal/par"
	"qbism/internal/region"
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
// given encoding — fetching the per-study band REGIONs concurrently
// over a bounded pool (workers <= 0 takes Config.Workers), then
// intersecting smallest-first. The result is identical to the serial
// SQL plan's: each fetch is an independent read, and IntersectN is
// order-independent.
func (s *Server) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, error) {
	if len(studies) == 0 {
		return nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	if workers <= 0 {
		workers = s.Cfg.Workers
	}
	regions := make([]*region.Region, len(studies))
	errs := make([]error, len(studies))
	par.Each(len(studies), workers, func(i int) {
		regions[i], errs[i] = s.fetchBandRegion(studies[i], bandLo, bandHi, encoding)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("qbism: study %d band [%d,%d] %s: %w",
				studies[i], bandLo, bandHi, encoding, err)
		}
	}
	return region.IntersectN(regions...)
}

// fetchBandRegion reads one study's stored band REGION and recodes it
// onto the system curve (mirroring the nIntersect UDF's normalization).
func (s *Server) fetchBandRegion(studyID, bandLo, bandHi int, encoding string) (*region.Region, error) {
	var row [1]sdb.Value
	n, err := querySingle(nil, nil, s.stmts.bandRegion, row[:],
		sdb.Int(int64(studyID)), sdb.Int(int64(bandLo)), sdb.Int(int64(bandHi)),
		sdb.Str(encoding))
	if err != nil {
		return nil, err
	}
	if n != 1 {
		return nil, fmt.Errorf("no stored intensityBand row")
	}
	r, err := s.regionRuns(&lfm.IO{M: s.LFM}, nil, nil, row[0])
	if err != nil {
		return nil, err
	}
	return r.Recode(s.Curve)
}
