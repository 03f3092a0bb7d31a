// Command regionstat prints the Section 4.2 representation statistics
// for a single REGION: run counts under each ordering, octant counts,
// encoded sizes under every method, the entropy bound, and the EQ 1
// power-law fit of its delta-length distribution.
//
// Examples:
//
//	regionstat -shape sphere -r 40
//	regionstat -shape box -bits 7
//	regionstat -shape structure -name ntal1
package main

import (
	"flag"
	"fmt"
	"os"

	"qbism"
)

func main() {
	bits := flag.Int("bits", 7, "grid bits per axis")
	shape := flag.String("shape", "sphere", "sphere|box|ellipsoid|structure")
	r := flag.Float64("r", 30, "sphere radius (voxels)")
	name := flag.String("name", "ntal", "structure name for -shape structure")
	flag.Parse()

	hc, err := qbism.NewCurve(qbism.CurveHilbert, 3, *bits)
	if err != nil {
		fail("%v", err)
	}
	zc, _ := qbism.NewCurve(qbism.CurveZOrder, 3, *bits)
	side := float64(uint32(1) << *bits)

	var reg *qbism.Region
	switch *shape {
	case "sphere":
		reg, err = qbism.FromSphere(hc, side/2, side/2, side/2, *r)
	case "box":
		reg, err = qbism.FromBox(hc, qbism.Box{
			Min: qbism.Pt(uint32(side*0.23), uint32(side*0.23), uint32(side*0.23)),
			Max: qbism.Pt(uint32(side*0.78), uint32(side*0.78), uint32(side*0.78)),
		})
	case "ellipsoid":
		reg, err = qbism.FromEllipsoid(hc, qbism.Ellipsoid{
			CX: side / 2, CY: side / 2, CZ: side / 2,
			RX: side * 0.3, RY: side * 0.2, RZ: side * 0.35,
		})
	case "structure":
		a, aerr := qbism.BuildAtlas(hc, false)
		if aerr != nil {
			fail("%v", aerr)
		}
		st, serr := a.ByName(*name)
		if serr != nil {
			fail("%v", serr)
		}
		reg = st.Region
	default:
		fail("unknown shape %q", *shape)
	}
	if err != nil {
		fail("%v", err)
	}

	zreg, err := reg.Recode(zc)
	if err != nil {
		fail("recode: %v", err)
	}

	fmt.Printf("REGION: %s on a %d^3 grid\n", *shape, 1<<*bits)
	fmt.Printf("voxels          %d\n", reg.NumVoxels())
	fmt.Printf("h-runs          %d\n", reg.NumRuns())
	fmt.Printf("z-runs          %d\n", zreg.NumRuns())
	fmt.Printf("oblong octants  %d (z order)\n", len(qbism.OblongOctants(zreg)))
	fmt.Printf("octants         %d (z order)\n", len(qbism.Octants(zreg)))
	fmt.Printf("ratios          1 : %.2f : %.2f : %.2f   (paper: 1 : 1.27 : 1.61 : 2.42)\n",
		ratio(zreg.NumRuns(), reg.NumRuns()),
		ratio(len(qbism.OblongOctants(zreg)), reg.NumRuns()),
		ratio(len(qbism.Octants(zreg)), reg.NumRuns()))
	fmt.Println()

	entropy := qbism.EntropyBound(reg)
	fmt.Printf("entropy bound   %.0f bytes (%.2f bits/delta)\n", entropy, qbism.EntropyBitsPerDelta(reg))
	methods := []qbism.EncodingMethod{
		qbism.EncodingElias, qbism.EncodingEliasDelta, qbism.EncodingGolomb,
		qbism.EncodingVarint, qbism.EncodingNaive,
	}
	for _, m := range methods {
		n, err := qbism.EncodedRegionSize(m, reg)
		if err != nil {
			fail("%v: %v", m, err)
		}
		fmt.Printf("%-15s %d bytes (%.2fx entropy)\n", m.String(), n, float64(n)/entropy)
	}
	for _, m := range []qbism.EncodingMethod{qbism.EncodingOblongOctant, qbism.EncodingOctant} {
		n, err := qbism.EncodedRegionSize(m, zreg)
		if err != nil {
			fail("%v: %v", m, err)
		}
		fmt.Printf("%-15s %d bytes (%.2fx entropy, z order)\n", m.String(), n, float64(n)/entropy)
	}
	fmt.Println()

	if fit, err := qbism.FitPowerLawBinned(qbism.DeltaHistogram(reg)); err == nil {
		fmt.Printf("EQ 1 fit        %s   (paper: a ≈ 1.5-1.7)\n", fit)
	} else {
		fmt.Printf("EQ 1 fit        not enough distinct delta lengths (%v)\n", err)
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
