// Compression: the Section 4.2 representation study on shapes you can
// dial — for each test REGION, count pieces under every ordering, size
// every encoding against the entropy bound (Figure 4), and fit the EQ 1
// delta-length power law.
package main

import (
	"fmt"
	"log"

	"qbism"
	"qbism/internal/experiments"
)

func main() {
	hc, err := qbism.NewCurve(qbism.CurveHilbert, 3, 6)
	if err != nil {
		log.Fatal(err)
	}
	zc, err := qbism.NewCurve(qbism.CurveZOrder, 3, 6)
	if err != nil {
		log.Fatal(err)
	}

	shapes := []struct {
		name  string
		build func() (*qbism.Region, error)
	}{
		{"sphere r=20", func() (*qbism.Region, error) {
			return qbism.FromSphere(hc, 32, 32, 32, 20)
		}},
		{"flat ellipsoid", func() (*qbism.Region, error) {
			return qbism.FromEllipsoid(hc, qbism.Ellipsoid{CX: 32, CY: 32, CZ: 32, RX: 28, RY: 24, RZ: 6})
		}},
		{"box 36^3", func() (*qbism.Region, error) {
			return qbism.FromBox(hc, qbism.Box{Min: qbism.Pt(14, 14, 14), Max: qbism.Pt(49, 49, 49)})
		}},
		{"shell", func() (*qbism.Region, error) {
			outer, err := qbism.FromSphere(hc, 32, 32, 32, 22)
			if err != nil {
				return nil, err
			}
			inner, err := qbism.FromSphere(hc, 32, 32, 32, 17)
			if err != nil {
				return nil, err
			}
			return qbism.Difference(outer, inner)
		}},
		{"two blobs", func() (*qbism.Region, error) {
			a, err := qbism.FromSphere(hc, 20, 24, 30, 12)
			if err != nil {
				return nil, err
			}
			b, err := qbism.FromSphere(hc, 44, 40, 34, 10)
			if err != nil {
				return nil, err
			}
			return qbism.Union(a, b)
		}},
	}

	methods := []qbism.EncodingMethod{
		qbism.EncodingElias, qbism.EncodingEliasDelta, qbism.EncodingGolomb,
		qbism.EncodingVarint, qbism.EncodingNaive,
	}

	for _, sh := range shapes {
		reg, err := sh.build()
		if err != nil {
			log.Fatal(err)
		}
		zreg, err := reg.Recode(zc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %d voxels ==\n", sh.name, reg.NumVoxels())
		fmt.Printf("pieces: h-runs %d | z-runs %d | oblong %d | octants %d\n",
			reg.NumRuns(), zreg.NumRuns(), len(qbism.OblongOctants(zreg)), len(qbism.Octants(zreg)))

		entropy := qbism.EntropyBound(reg)
		fmt.Printf("entropy bound %.0f B\n", entropy)
		for _, m := range methods {
			n, err := qbism.EncodedRegionSize(m, reg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s %7d B  %.2fx entropy\n", m, n, float64(n)/entropy)
		}
		if fit, err := qbism.FitPowerLawBinned(qbism.DeltaHistogram(reg)); err == nil {
			fmt.Printf("EQ 1: %s\n", fit)
		}

		// Approximate representation: what does dropping small gaps buy?
		approx, err := experiments.MergeGaps(reg, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mingap=8: runs %d -> %d, voxels %d -> %d\n\n",
			reg.NumRuns(), approx.NumRuns(), reg.NumVoxels(), approx.NumVoxels())
	}
}
