package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %v", fit)
	}
	if math.Abs(fit.R-1) > 1e-12 {
		t.Errorf("r = %v, want 1", fit.R)
	}
	if fit.String() == "" {
		t.Error("empty String")
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Linear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestLinearNegativeCorrelation(t *testing.T) {
	fit, err := Linear([]float64{1, 2, 3}, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.R+1) > 1e-12 {
		t.Errorf("r = %v, want -1", fit.R)
	}
}

func TestLinearThroughOrigin(t *testing.T) {
	x := []float64{1, 2, 4}
	y := []float64{1.27, 2.54, 5.08} // exactly 1.27x — the paper's z/h ratio
	fit, err := LinearThroughOrigin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1.27) > 1e-12 {
		t.Errorf("slope = %v, want 1.27", fit.Slope)
	}
	if math.Abs(fit.R-1) > 1e-9 {
		t.Errorf("r = %v", fit.R)
	}
	if _, err := LinearThroughOrigin(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LinearThroughOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero x accepted")
	}
	if _, err := LinearThroughOrigin([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	one, err := LinearThroughOrigin([]float64{2}, []float64{6})
	if err != nil || one.Slope != 3 || one.R != 1 {
		t.Errorf("single point fit = %v, %v", one, err)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// count = 1000 * len^-1.6 sampled exactly.
	hist := make(map[uint64]int)
	for _, l := range []uint64{1, 2, 4, 8, 16, 32} {
		hist[l] = int(math.Round(1000 * math.Pow(float64(l), -1.6)))
	}
	p, err := FitPowerLaw(hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Alpha-1.6) > 0.05 {
		t.Errorf("alpha = %v, want ≈1.6", p.Alpha)
	}
	if p.R > -0.99 {
		t.Errorf("log-log r = %v, want near -1", p.R)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw(map[uint64]int{1: 5}); err == nil {
		t.Error("single-bin histogram accepted")
	}
	if _, err := FitPowerLaw(map[uint64]int{0: 5, 1: 0}); err == nil {
		t.Error("only ignorable bins accepted")
	}
}

func TestFitPowerLawBinnedExact(t *testing.T) {
	// Dense power-law histogram: count = 10000 * len^-1.5 over 1..1024.
	hist := make(map[uint64]int)
	for l := uint64(1); l <= 1024; l++ {
		c := int(math.Round(10000 * math.Pow(float64(l), -1.5)))
		if c > 0 {
			hist[l] = c
		}
	}
	p, err := FitPowerLawBinned(hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Alpha-1.5) > 0.15 {
		t.Errorf("alpha = %v, want ≈1.5", p.Alpha)
	}
}

func TestFitPowerLawBinnedRobustToSingletonTail(t *testing.T) {
	// A steep head plus a long tail of singleton huge lengths — the
	// shape of real delta histograms. The unweighted fit is dragged
	// flat by the tail; the binned fit must stay near the head slope.
	hist := map[uint64]int{1: 3000, 2: 1100, 3: 560, 4: 390, 5: 250, 6: 190, 7: 140, 8: 95}
	for i := 0; i < 40; i++ {
		hist[uint64(1000+137*i)] = 1
	}
	binned, err := FitPowerLawBinned(hist)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FitPowerLaw(hist)
	if err != nil {
		t.Fatal(err)
	}
	if binned.Alpha < 1.0 {
		t.Errorf("binned alpha = %.2f, want >= 1 (head slope ≈ 1.6)", binned.Alpha)
	}
	if raw.Alpha >= binned.Alpha {
		t.Errorf("expected tail to flatten the raw fit (raw %.2f, binned %.2f)", raw.Alpha, binned.Alpha)
	}
}

func TestFitPowerLawBinnedErrors(t *testing.T) {
	if _, err := FitPowerLawBinned(nil); err == nil {
		t.Error("empty histogram accepted")
	}
	if _, err := FitPowerLawBinned(map[uint64]int{1: 5}); err == nil {
		t.Error("single-bin histogram accepted")
	}
	// Two lengths in the same factor-2 bin -> one bin -> insufficient.
	if _, err := FitPowerLawBinned(map[uint64]int{2: 5, 3: 4}); err == nil {
		t.Error("single-occupied-bin histogram accepted")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean broken")
	}
}

// TestLinearRecoversNoisyLine property-tests that regression recovers
// slope/intercept from noisy data within tolerance.
func TestLinearRecoversNoisyLine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slope := rng.Float64()*10 - 5
		intercept := rng.Float64()*10 - 5
		n := 200
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = slope*x[i] + intercept + rng.NormFloat64()*0.01
		}
		fit, err := Linear(x, y)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-slope) < 0.01 && math.Abs(fit.Intercept-intercept) < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
