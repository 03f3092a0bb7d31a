package qbism

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qbism/internal/lfm"
	"qbism/internal/medserver"
)

// Table4Row is one row of Table 4: the multi-study n-way intersection
// under one REGION encoding method.
type Table4Row struct {
	Encoding    string
	NumStudies  int
	LFMPages    uint64
	CPUMeasured time.Duration
	RealSim     time.Duration
	ResultRuns  int
	ResultVox   uint64
}

// Table4 runs the multi-study query of Section 6.3 — "compute the REGION
// in which all PET studies consistently have intensities in the range
// [lo, hi]" — once per band encoding, and reports I/O and time. The
// system must have been built with ExtraBandEncodings.
func (s *System) Table4(bandLo, bandHi int) ([]Table4Row, error) {
	pets := s.PETStudyIDs()
	if len(pets) < 2 {
		return nil, fmt.Errorf("qbism: Table 4 needs at least 2 PET studies, have %d", len(pets))
	}
	var rows []Table4Row
	for _, enc := range []string{EncHilbertNaive, EncZNaive, EncOctant} {
		row, err := s.table4One(pets, bandLo, bandHi, enc)
		if err != nil {
			return nil, fmt.Errorf("qbism: Table 4 %s: %w", enc, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4One runs the multi-study intersection under a single encoding
// (for targeted benchmarks and ablations).
func (s *System) Table4One(bandLo, bandHi int, encoding string) (Table4Row, error) {
	pets := s.PETStudyIDs()
	if len(pets) < 2 {
		return Table4Row{}, fmt.Errorf("qbism: need at least 2 PET studies, have %d", len(pets))
	}
	return s.table4One(pets, bandLo, bandHi, encoding)
}

// table4One executes the n-way intersection for one encoding. The
// generated SQL joins intensityBand once per study and calls the
// variadic nIntersect UDF, as a Starburst query with n joins would.
func (s *System) table4One(studies []int, bandLo, bandHi int, encoding string) (Table4Row, error) {
	var selectArgs, froms, wheres []string
	for i, id := range studies {
		a := fmt.Sprintf("ib%d", i+1)
		selectArgs = append(selectArgs, a+".region")
		froms = append(froms, "intensityBand "+a)
		wheres = append(wheres,
			fmt.Sprintf("%s.studyId = %d", a, id),
			fmt.Sprintf("%s.lo = %d", a, bandLo),
			fmt.Sprintf("%s.hi = %d", a, bandHi),
			fmt.Sprintf("%s.encoding = '%s'", a, encoding),
		)
	}
	sql := fmt.Sprintf("select nIntersect(%s)\nfrom %s\nwhere %s",
		strings.Join(selectArgs, ", "),
		strings.Join(froms, ", "),
		strings.Join(wheres, " and "))

	pages0 := s.LFM.Stats().PageReads
	start := time.Now()
	res, err := s.DB.Exec(sql)
	if err != nil {
		return Table4Row{}, err
	}
	cpu := time.Since(start)
	pages := s.LFM.Stats().PageReads - pages0
	if len(res.Rows) != 1 {
		return Table4Row{}, fmt.Errorf("expected 1 row, got %d", len(res.Rows))
	}
	out, err := medserver.RegionFromValue(&lfm.IO{M: s.LFM}, res.Rows[0][0])
	if err != nil {
		return Table4Row{}, err
	}
	return Table4Row{
		Encoding:    encoding,
		NumStudies:  len(studies),
		LFMPages:    pages,
		CPUMeasured: cpu,
		RealSim:     s.Model.StarburstTime(cpu, pages),
		ResultRuns:  out.NumRuns(),
		ResultVox:   out.NumVoxels(),
	}, nil
}

// WriteTable4 formats rows like the paper's Table 4.
func WriteTable4(w io.Writer, rows []Table4Row, bandLo, bandHi int) {
	fmt.Fprintf(w, "TABLE 4. Starburst multi-study query: REGION where all %d PET studies\n", rows[0].NumStudies)
	fmt.Fprintf(w, "consistently have intensities in %d-%d, by REGION encoding method.\n\n", bandLo, bandHi)
	fmt.Fprintf(w, "%-18s %10s %12s %12s %12s %12s\n",
		"encoding", "LFM-IO", "cpu(meas)", "real(sim)", "result-runs", "result-vox")
	fmt.Fprintln(w, strings.Repeat("-", 80))
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %12s %11.1fs %12d %12d\n",
			r.Encoding, r.LFMPages, fmtDur(r.CPUMeasured), r.RealSim.Seconds(), r.ResultRuns, r.ResultVox)
	}
}
