package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/lfm"
	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/rencode/zoo"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
)

// Table 4's two rows on the Z curve, which only the experiments store
// (StoreTable4Rows); the server stores EncHilbertNaive and EncK3Tree.
const (
	// EncZNaive is runs in Z order, 8 bytes per run.
	EncZNaive = "z-naive"
	// EncOctant is regular octants in Z order, 4 bytes per octant.
	EncOctant = "octant"
)

// StoreTable4Rows stores Table 4's z-naive and octant rows beside the
// server's own: every band of every loaded study, recoded from
// BandRegions onto the Z curve, goes into a long field of srv.LFM and an
// intensityBand row of its own, in study and band order. The server still
// refuses these labels in a spec; Table 4's SQL reads them. Call it
// before the server answers queries, as the loader runs:
// sdb.InsertRow is not synchronized.
func StoreTable4Rows(srv *medserver.Server) error {
	z := sfc.MustNew(sfc.ZOrder, 3, srv.Cfg.Bits)
	for _, id := range studyIDs(srv) {
		for _, b := range srv.BandRegions[id] {
			rz, err := b.Region.Recode(z)
			if err != nil {
				return err
			}
			for _, row := range []struct {
				encoding string
				method   zoo.Method
			}{{EncZNaive, zoo.Naive}, {EncOctant, zoo.Octant}} {
				data, err := zoo.Encode(row.method, rz)
				if err != nil {
					return err
				}
				h, err := srv.LFM.Allocate(data)
				if err != nil {
					return err
				}
				if err := srv.DB.InsertRow("intensityBand", []sdb.Value{
					sdb.Int(int64(id)), sdb.Int(int64(srv.AtlasID)),
					sdb.Int(int64(b.Lo)), sdb.Int(int64(b.Hi)),
					sdb.Str(row.encoding), sdb.Long(h),
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

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
// the last two of which exist only once StoreTable4Rows has stored them.
// A row's LFM-IO is what its statement read, exact however many queries
// the server answers at the same time.
func Table4(srv *medserver.Server, bandLo, bandHi int, encodings ...string) ([]Table4Row, error) {
	pets := srv.PETStudyIDs()
	if len(pets) < 2 {
		return nil, fmt.Errorf("qbism: Table 4 needs at least 2 PET studies, have %d", len(pets))
	}
	if len(encodings) == 0 {
		encodings = []string{medserver.EncHilbertNaive, EncZNaive, EncOctant}
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
// generated SQL joins intensityBand once per study, as a Starburst query
// with n joins would, and selects the n stored REGIONs; every study id,
// band bound and encoding label is a bind value. The REGIONs are read on
// the statement's bill, so a row's LFM-IO is all its query read, and
// decoded by whichever codec wrote them (zoo.Decode); those on another
// curve — Table 4's Z rows — are recoded onto the server's, and
// region.IntersectN folds them. RealSim prices the row with the 1993
// model every Client is built with.
func table4One(srv *medserver.Server, studies []int, bandLo, bandHi int, encoding string) (Table4Row, error) {
	var selects, froms, wheres []string
	var args []sdb.Value
	for i, id := range studies {
		a := fmt.Sprintf("ib%d", i+1)
		selects = append(selects, a+".region")
		froms = append(froms, "intensityBand "+a)
		wheres = append(wheres, a+".studyId = ?", a+".lo = ?", a+".hi = ?", a+".encoding = ?")
		args = append(args, sdb.Int(int64(id)), sdb.Int(int64(bandLo)), sdb.Int(int64(bandHi)), sdb.Str(encoding))
	}
	sql := fmt.Sprintf("select %s\nfrom %s\nwhere %s",
		strings.Join(selects, ", "),
		strings.Join(froms, ", "),
		strings.Join(wheres, " and "))

	start := time.Now()
	rows, err := srv.DB.Query(sql, args...)
	if err != nil {
		return Table4Row{}, err
	}
	var handles []sdb.Value
	n := 0
	for rows.Next() {
		if n == 0 {
			handles = rows.Row()
		}
		n++
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		return Table4Row{}, err
	}
	if n != 1 {
		return Table4Row{}, fmt.Errorf("expected 1 row, got %d", n)
	}
	io := lfm.IO{M: srv.LFM, Stats: rows.IO()}
	operands := make([]*region.Region, len(studies))
	for i, v := range handles {
		data, err := io.Read(v.L)
		if err != nil {
			return Table4Row{}, err
		}
		r, err := zoo.Decode(data)
		if err == nil && !region.SameCurve(r.Curve(), srv.Curve) {
			r, err = r.Recode(srv.Curve)
		}
		if err != nil {
			return Table4Row{}, fmt.Errorf("study %d: %w", studies[i], err)
		}
		operands[i] = r
	}
	out, err := region.IntersectN(operands...)
	cpu := time.Since(start)
	if err != nil {
		return Table4Row{}, err
	}
	return Table4Row{
		Encoding:    encoding,
		NumStudies:  len(studies),
		LFMPages:    io.PageReads,
		CPUMeasured: cpu,
		RealSim:     costmodel.Default1993().StarburstTime(cpu, io.PageReads),
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
