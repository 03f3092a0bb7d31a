package qbism

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qbism/internal/costmodel"
)

// Table3Queries returns the six single-study query specs of Table 3,
// scaled from the paper's 128-grid coordinates to this system's grid.
// The study is the first PET study; the box is the paper's 71x71x71
// rectangular solid with corners (30,30,30) and (100,100,100); bands
// 224-255 are the top intensity band.
func (s *System) Table3Queries() []QuerySpec {
	study := s.PETStudyIDs()[0]
	scale := func(v uint32) uint32 { return v * uint32(s.Side()) / 128 }
	box := [6]uint32{scale(30), scale(30), scale(30), scale(100), scale(100), scale(100)}
	topLo := 256 - s.Cfg.BandWidth
	return []QuerySpec{
		{StudyID: study, Atlas: "Talairach", FullStudy: true},
		{StudyID: study, Atlas: "Talairach", Box: &box},
		{StudyID: study, Atlas: "Talairach", Structure: "ntal"},
		{StudyID: study, Atlas: "Talairach", Structure: "ntal1"},
		{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: topLo, BandHi: 255},
		{StudyID: study, Atlas: "Talairach", Structure: "ntal1", HasBand: true, BandLo: topLo, BandHi: 255},
	}
}

// Table3Row is one row of Table 3, which WriteTable3 prices.
type Table3Row struct {
	Label  string
	Result *QueryResult
}

// Table3 runs the six queries and returns their rows in order (Q1..Q6),
// each a full run as §6.1's cache flush made it: RunQuery never reads
// the DX cache.
func (s *System) Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for i, spec := range s.Table3Queries() {
		res, err := s.RunQuery(spec)
		if err != nil {
			return nil, fmt.Errorf("qbism: Q%d (%s): %w", i+1, spec.Label(), err)
		}
		rows = append(rows, Table3Row{Label: fmt.Sprintf("Q%d: %s", i+1, spec.Label()), Result: res})
	}
	return rows, nil
}

// SimTime is a query's work priced in 1993 seconds: Table 3's sim columns.
type SimTime struct{ DB, Net, Import, Render, Retry, Other, Total time.Duration }

// PriceQuery prices what RunQuery measured with the calibrated 1993 cost
// model, so rows are comparable with the paper's; the network and retry
// columns are the read's bill (Read.Net.Latency and BackoffSim).
func PriceQuery(res *QueryResult) SimTime {
	m, t := costmodel.Default1993(), res.Timing
	p := SimTime{
		DB:     m.StarburstTime(t.DBMeasured, t.LFMPages),
		Net:    res.Read.Net.Latency,
		Import: m.ImportTime(t.Voxels, uint64(t.HRuns)),
		Render: m.RenderTime(t.Voxels),
		Retry:  res.Read.BackoffSim,
		Other:  m.OtherTime,
	}
	p.Total = p.DB + p.Net + p.Import + p.Render + p.Retry + p.Other
	return p
}

// WriteTable3 prices rows and formats them like the paper's Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "TABLE 3. Full-system run-time measurements for single-study queries.")
	fmt.Fprintln(w, "Sim columns price counted work with the calibrated 1993 cost model;")
	fmt.Fprintln(w, "meas columns are this machine's actual times.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-34s %8s %9s %7s | %8s %8s | %6s %8s | %8s %8s | %8s %7s %8s | %9s\n",
		"query", "h-runs", "voxels", "LFM-IO",
		"DB(meas)", "DB(sim)", "msgs", "net(sim)",
		"imp(meas)", "imp(sim)", "rend(sim)", "other", "tot(meas)", "tot(sim)")
	fmt.Fprintln(w, strings.Repeat("-", 172))
	for _, r := range rows {
		t, p := r.Result.Timing, PriceQuery(r.Result)
		fmt.Fprintf(w, "%-34s %8d %9d %7d | %8s %8.1f | %6d %8.1f | %8s %8.2f | %8.1f %7.1f %8s | %8.1fs\n",
			truncate(r.Label, 34), t.HRuns, t.Voxels, t.LFMPages,
			fmtDur(t.DBMeasured), p.DB.Seconds(),
			t.NetMessages, p.Net.Seconds(),
			fmtDur(t.ImportMeasured), p.Import.Seconds(),
			p.Render.Seconds(), p.Other.Seconds(), fmtDur(t.TotalMeasured),
			p.Total.Seconds())
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
