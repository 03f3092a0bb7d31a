// Package stats provides the small statistical toolkit the paper's
// analysis relies on: simple linear regression with correlation
// coefficients (used for the run-ratio and size-ratio fits of Section 4),
// and log-log power-law fitting for the delta-length distribution (EQ 1).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned when a fit has fewer points than
// parameters.
var ErrInsufficientData = errors.New("stats: insufficient data")

// LinearFit is the least-squares line y = Slope*x + Intercept with its
// Pearson correlation coefficient R.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R         float64
	N         int
}

// String formats the fit for reports.
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.4g*x + %.4g (r=%.3f, n=%d)", f.Slope, f.Intercept, f.R, f.N)
}

// Linear fits a least-squares line through (x[i], y[i]).
func Linear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	rden := math.Sqrt(denom * (n*syy - sy*sy))
	r := 0.0
	if rden != 0 {
		r = (n*sxy - sx*sy) / rden
	}
	return LinearFit{Slope: slope, Intercept: intercept, R: r, N: len(x)}, nil
}

// LinearThroughOrigin fits y = Slope*x (no intercept), the form used for
// the paper's ratio claims ("the scatter-plots were well approximated by
// lines"), along with the ordinary correlation coefficient of the data.
func LinearThroughOrigin(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 1 {
		return LinearFit{}, ErrInsufficientData
	}
	var sxx, sxy float64
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: all x are zero")
	}
	fit := LinearFit{Slope: sxy / sxx, N: len(x)}
	if len(x) >= 2 {
		if full, err := Linear(x, y); err == nil {
			fit.R = full.R
		}
	} else {
		fit.R = 1
	}
	return fit, nil
}

// PowerLaw is the fit count = C * length^(-Alpha) of EQ 1.
type PowerLaw struct {
	C     float64
	Alpha float64
	R     float64 // correlation of the log-log fit
	N     int
}

// String formats the power law as the paper writes EQ 1.
func (p PowerLaw) String() string {
	return fmt.Sprintf("count = %.4g * length^(-%.2f) (log-log r=%.3f, n=%d)", p.C, p.Alpha, p.R, p.N)
}

// FitPowerLaw fits EQ 1 to a histogram (value -> count) by least squares
// in log-log space, ignoring zero counts.
func FitPowerLaw(hist map[uint64]int) (PowerLaw, error) {
	var lx, ly []float64
	for v, c := range hist {
		if v == 0 || c <= 0 {
			continue
		}
		lx = append(lx, math.Log(float64(v)))
		ly = append(ly, math.Log(float64(c)))
	}
	if len(lx) < 2 {
		return PowerLaw{}, ErrInsufficientData
	}
	fit, err := Linear(lx, ly)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{
		C:     math.Exp(fit.Intercept),
		Alpha: -fit.Slope,
		R:     fit.R,
		N:     len(lx),
	}, nil
}

// FitPowerLawBinned fits EQ 1 using logarithmic binning, the standard
// estimator for power laws observed through histograms: lengths are
// grouped into geometric (factor-2) bins, each bin contributes its count
// density (total count / bin width) at its geometric-mean length, and
// the line is fitted in log-log space. Unlike FitPowerLaw this is not
// dominated by the long tail of singleton lengths.
func FitPowerLawBinned(hist map[uint64]int) (PowerLaw, error) {
	if len(hist) == 0 {
		return PowerLaw{}, ErrInsufficientData
	}
	var maxLen uint64
	for v := range hist {
		if v > maxLen {
			maxLen = v
		}
	}
	var lx, ly []float64
	for lo := uint64(1); lo <= maxLen; lo *= 2 {
		hi := lo*2 - 1
		total := 0
		for v, c := range hist {
			if v >= lo && v <= hi {
				total += c
			}
		}
		if total == 0 {
			continue
		}
		width := float64(hi - lo + 1)
		center := math.Sqrt(float64(lo) * float64(hi))
		lx = append(lx, math.Log(center))
		ly = append(ly, math.Log(float64(total)/width))
	}
	if len(lx) < 2 {
		return PowerLaw{}, ErrInsufficientData
	}
	fit, err := Linear(lx, ly)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{C: math.Exp(fit.Intercept), Alpha: -fit.Slope, R: fit.R, N: len(lx)}, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
