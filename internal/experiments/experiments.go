// Package experiments regenerates the paper's evaluation over a loaded
// MedicalServer: the representation study of Section 4 (E1 run ratios,
// E2 the EQ 1 delta law, E3 Figure 4's sizes, the mingap ablation),
// Table 4's multi-study intersection, and the Section 7 population tools
// (activity index, similarity search, association mining). Every
// function takes the *medserver.Server it reads; none needs a DX client,
// so this package imports no internal/qbism, dx, cluster or transport,
// and a program that only wants a Client links none of this
// (`make client-deps`). Table 3, the client's own per-query bill, stays
// with the client.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/stats"
)

// NamedRegion pairs an experimental REGION with a label for reports.
type NamedRegion struct {
	Name   string
	Region *region.Region
}

// ExperimentRegions collects the REGIONs of Section 4's representation
// study: the atlas structures plus every non-trivial intensity band of
// every study (the paper's "various anatomic and intensity band
// REGIONs"). Bands covering more than half the grid (background air) are
// excluded, as they are not meaningful query regions.
func ExperimentRegions(srv *medserver.Server) []NamedRegion {
	var out []NamedRegion
	for _, st := range srv.Atlas.Structures {
		out = append(out, NamedRegion{Name: "structure/" + st.Name, Region: st.Region})
	}
	half := srv.Curve.Length() / 2
	for _, id := range studyIDs(srv) {
		for _, b := range srv.BandRegions[id] {
			if b.Region.Empty() || b.Region.NumVoxels() > half {
				continue
			}
			out = append(out, NamedRegion{
				Name:   fmt.Sprintf("study%d/band%d-%d", id, b.Lo, b.Hi),
				Region: b.Region,
			})
		}
	}
	return out
}

// RunRatioRow is one REGION's piece counts under the four encodings of
// the Section 4.2 comparison.
type RunRatioRow struct {
	Name          string
	HRuns         int
	ZRuns         int
	OblongOctants int
	Octants       int
}

// RunRatioReport is experiment E1: the paper's
// (#h-runs):(#z-runs):(#oblong):(#octants) = 1 : 1.27 : 1.61 : 2.42
// result with the linear-fit correlation coefficients.
type RunRatioReport struct {
	Rows                       []RunRatioRow
	ZPerH, OblongPerH, OctPerH float64 // fitted slopes through the origin
	RZ, ROblong, ROct          float64 // correlation coefficients
}

// RunRatios measures every experiment REGION under h-runs, z-runs,
// oblong octants and regular octants (the latter three in Z order, as
// classic octrees are) and fits the ratio lines.
func RunRatios(srv *medserver.Server) (*RunRatioReport, error) {
	rep := &RunRatioReport{}
	var h, z, ob, oc []float64
	for _, nr := range ExperimentRegions(srv) {
		rz, err := nr.Region.Recode(srv.ZCurve)
		if err != nil {
			return nil, err
		}
		row := RunRatioRow{
			Name:          nr.Name,
			HRuns:         nr.Region.NumRuns(),
			ZRuns:         rz.NumRuns(),
			OblongOctants: len(rz.OblongOctants()),
			Octants:       len(rz.Octants()),
		}
		rep.Rows = append(rep.Rows, row)
		h = append(h, float64(row.HRuns))
		z = append(z, float64(row.ZRuns))
		ob = append(ob, float64(row.OblongOctants))
		oc = append(oc, float64(row.Octants))
	}
	fits := []struct {
		y     []float64
		slope *float64
		r     *float64
	}{
		{z, &rep.ZPerH, &rep.RZ},
		{ob, &rep.OblongPerH, &rep.ROblong},
		{oc, &rep.OctPerH, &rep.ROct},
	}
	for _, f := range fits {
		fit, err := stats.LinearThroughOrigin(h, f.y)
		if err != nil {
			return nil, err
		}
		*f.slope = fit.Slope
		*f.r = fit.R
	}
	return rep, nil
}

// WriteRunRatios formats E1 next to the paper's numbers.
func WriteRunRatios(w io.Writer, rep *RunRatioReport) {
	fmt.Fprintln(w, "E1: piece-count ratios over atlas-structure and intensity-band REGIONs")
	fmt.Fprintf(w, "%-28s %8s %8s %8s %8s\n", "region", "h-runs", "z-runs", "oblong", "octants")
	fmt.Fprintln(w, strings.Repeat("-", 66))
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-28s %8d %8d %8d %8d\n", truncate(r.Name, 28), r.HRuns, r.ZRuns, r.OblongOctants, r.Octants)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fitted ratios  (#h):(#z):(#oblong):(#oct) = 1 : %.2f : %.2f : %.2f\n",
		rep.ZPerH, rep.OblongPerH, rep.OctPerH)
	fmt.Fprintf(w, "correlations   r_z=%.3f r_oblong=%.3f r_oct=%.3f\n", rep.RZ, rep.ROblong, rep.ROct)
	fmt.Fprintln(w, "paper          1 : 1.27 : 1.61 : 2.42   (r = 0.998 / 0.974 / 0.991)")
}

// DeltaLawRow is one REGION's EQ 1 power-law fit.
type DeltaLawRow struct {
	Name string
	Fit  stats.PowerLaw
}

// DeltaLaw is experiment E2: fit count = C * length^(-a) to the
// delta-length histogram of each region; the paper reports a ≈ 1.5-1.7.
func DeltaLaw(srv *medserver.Server) ([]DeltaLawRow, error) {
	var out []DeltaLawRow
	for _, nr := range ExperimentRegions(srv) {
		hist := rencode.DeltaHistogram(nr.Region)
		fit, err := stats.FitPowerLawBinned(hist)
		if err != nil {
			continue // degenerate region (too few distinct lengths)
		}
		out = append(out, DeltaLawRow{Name: nr.Name, Fit: fit})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("qbism: no region had enough deltas for a power-law fit")
	}
	return out, nil
}

// WriteDeltaLaw formats E2.
func WriteDeltaLaw(w io.Writer, rows []DeltaLawRow) {
	fmt.Fprintln(w, "E2: EQ 1 — delta-length distribution count = C * length^(-a)")
	fmt.Fprintf(w, "%-28s %10s %10s %8s\n", "region", "alpha", "C", "r(log)")
	fmt.Fprintln(w, strings.Repeat("-", 60))
	var alphas []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10.2f %10.3g %8.3f\n", truncate(r.Name, 28), r.Fit.Alpha, r.Fit.C, r.Fit.R)
		alphas = append(alphas, r.Fit.Alpha)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "mean alpha = %.2f   (paper: a ≈ 1.5-1.7)\n", stats.Mean(alphas))
}

// SizeRow is one REGION's storage cost under each method, in bytes,
// with the entropy bound.
type SizeRow struct {
	Name    string
	Entropy float64
	Elias   int
	Naive   int
	Oblong  int
	Octant  int
}

// SizeReport is experiment E3 (Figure 4): sizes relative to the entropy
// bound with through-origin fits.
type SizeReport struct {
	Rows []SizeRow
	// Slopes of size-vs-entropy fits (the paper's 1.17 / 9.50 / 10.4 / 17.8).
	EliasPerEntropy, NaivePerEntropy, OblongPerEntropy, OctPerEntropy float64
	REilias, RNaive, ROblong, ROct                                    float64
}

// Sizes measures encoded REGION sizes for E3. Oblong-octant and octant
// encodings are taken in Z order (classic linear octrees); elias and
// naive are on the Hilbert runs, matching Section 4.2's comparison.
func Sizes(srv *medserver.Server) (*SizeReport, error) {
	rep := &SizeReport{}
	var ent, el, na, ob, oc []float64
	for _, nr := range ExperimentRegions(srv) {
		rz, err := nr.Region.Recode(srv.ZCurve)
		if err != nil {
			return nil, err
		}
		row := SizeRow{Name: nr.Name, Entropy: rencode.EntropyBound(nr.Region)}
		if row.Entropy == 0 {
			continue
		}
		if row.Elias, err = rencode.EncodedSize(rencode.Elias, nr.Region); err != nil {
			return nil, err
		}
		if row.Naive, err = rencode.EncodedSize(rencode.Naive, nr.Region); err != nil {
			return nil, err
		}
		if row.Oblong, err = rencode.EncodedSize(rencode.OblongOctant, rz); err != nil {
			return nil, err
		}
		if row.Octant, err = rencode.EncodedSize(rencode.Octant, rz); err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
		ent = append(ent, row.Entropy)
		el = append(el, float64(row.Elias))
		na = append(na, float64(row.Naive))
		ob = append(ob, float64(row.Oblong))
		oc = append(oc, float64(row.Octant))
	}
	fits := []struct {
		y     []float64
		slope *float64
		r     *float64
	}{
		{el, &rep.EliasPerEntropy, &rep.REilias},
		{na, &rep.NaivePerEntropy, &rep.RNaive},
		{ob, &rep.OblongPerEntropy, &rep.ROblong},
		{oc, &rep.OctPerEntropy, &rep.ROct},
	}
	for _, f := range fits {
		fit, err := stats.LinearThroughOrigin(ent, f.y)
		if err != nil {
			return nil, err
		}
		*f.slope = fit.Slope
		*f.r = fit.R
	}
	return rep, nil
}

// WriteSizes formats E3 next to the paper's Figure 4 ratios.
func WriteSizes(w io.Writer, rep *SizeReport) {
	fmt.Fprintln(w, "E3 (Figure 4): REGION sizes by method, relative to the entropy bound")
	fmt.Fprintf(w, "%-28s %10s %8s %9s %8s %8s\n", "region", "entropy-B", "elias", "naive", "oblong", "octant")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-28s %10.0f %8d %9d %8d %8d\n",
			truncate(r.Name, 28), r.Entropy, r.Elias, r.Naive, r.Oblong, r.Octant)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fitted ratios  entropy : elias : naive : oblong : octant = 1 : %.2f : %.2f : %.2f : %.2f\n",
		rep.EliasPerEntropy, rep.NaivePerEntropy, rep.OblongPerEntropy, rep.OctPerEntropy)
	fmt.Fprintf(w, "correlations   r = %.3f / %.3f / %.3f / %.3f\n", rep.REilias, rep.RNaive, rep.ROblong, rep.ROct)
	fmt.Fprintln(w, "paper          1 : 1.17 : 9.50 : 10.4 : 17.8   (r in 0.968-0.985)")
}

// MingapRow quantifies the approximate-representation trade-off of
// Section 4.2 for one mingap threshold, aggregated over the experiment
// regions.
type MingapRow struct {
	Mingap        uint64
	MeanRunRatio  float64 // runs(approx)/runs(exact)
	MeanInflation float64 // voxels(approx)/voxels(exact)
}

// MingapSweep is the ablation for the paper's approximate REGIONs:
// eliminate gaps shorter than each threshold and measure the run-count
// saving against the volume over-inclusion.
func MingapSweep(srv *medserver.Server, thresholds []uint64) ([]MingapRow, error) {
	regions := ExperimentRegions(srv)
	var out []MingapRow
	for _, mg := range thresholds {
		var runRatios, inflations []float64
		for _, nr := range regions {
			if nr.Region.NumRuns() == 0 {
				continue
			}
			approx := nr.Region.MergeGaps(mg)
			_, inflation, err := region.ApproxError(nr.Region, approx)
			if err != nil {
				return nil, err
			}
			runRatios = append(runRatios, float64(approx.NumRuns())/float64(nr.Region.NumRuns()))
			inflations = append(inflations, inflation)
		}
		out = append(out, MingapRow{
			Mingap:        mg,
			MeanRunRatio:  stats.Mean(runRatios),
			MeanInflation: stats.Mean(inflations),
		})
	}
	return out, nil
}

// WriteMingap formats the mingap ablation.
func WriteMingap(w io.Writer, rows []MingapRow) {
	fmt.Fprintln(w, "Mingap ablation: approximate REGIONs (Section 4.2)")
	fmt.Fprintf(w, "%8s %14s %16s\n", "mingap", "runs vs exact", "volume inflation")
	fmt.Fprintln(w, strings.Repeat("-", 42))
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %13.1f%% %15.2fx\n", r.Mingap, 100*r.MeanRunRatio, r.MeanInflation)
	}
}

// truncate and fmtDur are the report helpers Table 3's formatter in
// internal/qbism also keeps; the two copies are smaller than a package
// both would import.
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
