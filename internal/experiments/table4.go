package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/medserver"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
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
// [lo, hi]" — once per band encoding, and reports I/O and time. With no
// encodings named it runs the paper's three (h-naive, z-naive, octant),
// which the server stores only under ExtraBandEncodings. A row's LFM-IO
// is what its statement read, exact however many queries the server
// answers at the same time.
func Table4(srv *medserver.Server, bandLo, bandHi int, encodings ...string) ([]Table4Row, error) {
	pets := srv.PETStudyIDs()
	if len(pets) < 2 {
		return nil, fmt.Errorf("qbism: Table 4 needs at least 2 PET studies, have %d", len(pets))
	}
	if len(encodings) == 0 {
		encodings = []string{medserver.EncHilbertNaive, medserver.EncZNaive, medserver.EncOctant}
	}
	var rows []Table4Row
	for _, enc := range encodings {
		row, err := table4One(srv, pets, bandLo, bandHi, enc)
		if err != nil {
			return nil, fmt.Errorf("qbism: Table 4 %s: %w", enc, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table4One executes the n-way intersection for one encoding. The
// generated SQL joins intensityBand once per study and calls the
// variadic nIntersect UDF, as a Starburst query with n joins would;
// every study id, band bound and encoding label is a bind value. RealSim
// prices the row with the 1993 model every Client is built with.
func table4One(srv *medserver.Server, studies []int, bandLo, bandHi int, encoding string) (Table4Row, error) {
	var selectArgs, froms, wheres []string
	var args []sdb.Value
	for i, id := range studies {
		a := fmt.Sprintf("ib%d", i+1)
		selectArgs = append(selectArgs, a+".region")
		froms = append(froms, "intensityBand "+a)
		wheres = append(wheres, a+".studyId = ?", a+".lo = ?", a+".hi = ?", a+".encoding = ?")
		args = append(args, sdb.Int(int64(id)), sdb.Int(int64(bandLo)), sdb.Int(int64(bandHi)), sdb.Str(encoding))
	}
	sql := fmt.Sprintf("select nIntersect(%s)\nfrom %s\nwhere %s",
		strings.Join(selectArgs, ", "),
		strings.Join(froms, ", "),
		strings.Join(wheres, " and "))

	start := time.Now()
	rows, err := srv.DB.Query(sql, args...)
	if err != nil {
		return Table4Row{}, err
	}
	defer rows.Close()
	var result sdb.Value
	n := 0
	for rows.Next() {
		if n == 0 {
			result = rows.Row()[0]
		}
		n++
	}
	cpu := time.Since(start)
	if err := rows.Err(); err != nil {
		return Table4Row{}, err
	}
	pages := rows.IO().PageReads
	if n != 1 {
		return Table4Row{}, fmt.Errorf("expected 1 row, got %d", n)
	}
	if result.T != sdb.TBytes {
		return Table4Row{}, fmt.Errorf("nIntersect returned %s, want an encoded REGION", result.T)
	}
	out, err := rencode.Decode(result.Y)
	if err != nil {
		return Table4Row{}, err
	}
	return Table4Row{
		Encoding:    encoding,
		NumStudies:  len(studies),
		LFMPages:    pages,
		CPUMeasured: cpu,
		RealSim:     costmodel.Default1993().StarburstTime(cpu, pages),
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
