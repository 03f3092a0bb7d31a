// Command benchtables regenerates every table and figure of the QBISM
// paper's evaluation section against a freshly built synthetic database.
//
// Usage:
//
//	benchtables [-e all|ratios|deltas|sizes|table3|table4|mingap] \
//	            [-bits 7] [-pets 5] [-mris 3] [-seed 1993] [-small]
//
// With the defaults (-bits 7 -pets 5 -mris 3) the dataset matches the
// paper's: a 128x128x128 atlas with 11 structures, 5 PET and 3 MRI
// studies warped and banded at load. Expect a few minutes of load time;
// -small or -bits 6 shrinks it for a quick look.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qbism"
	"qbism/internal/experiments"
)

func main() {
	exp := flag.String("e", "all", "experiment: all|ratios|deltas|sizes|table3|table4|mingap")
	bits := flag.Int("bits", 7, "atlas grid bits per axis (side = 1<<bits)")
	pets := flag.Int("pets", 5, "number of PET studies")
	mris := flag.Int("mris", 3, "number of MRI studies")
	seed := flag.Uint64("seed", 1993, "synthesis seed")
	small := flag.Bool("small", false, "use compact acquisition grids")
	flag.Parse()

	needTable4 := *exp == "all" || *exp == "table4"
	fmt.Printf("building system: %d^3 atlas, %d PET + %d MRI studies (seed %d)...\n",
		1<<*bits, *pets, *mris, *seed)
	start := time.Now()
	sys, err := qbism.NewSystem(qbism.Config{
		Bits:               *bits,
		NumPET:             *pets,
		NumMRI:             *mris,
		Seed:               *seed,
		SmallStudies:       *small,
		ExtraBandEncodings: needTable4,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "load failed:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded in %.1fs\n\n", time.Since(start).Seconds())

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("ratios", func() error {
		rep, err := experiments.RunRatios(sys.Server)
		if err != nil {
			return err
		}
		experiments.WriteRunRatios(os.Stdout, rep)
		return nil
	})
	run("deltas", func() error {
		rows, err := experiments.DeltaLaw(sys.Server)
		if err != nil {
			return err
		}
		experiments.WriteDeltaLaw(os.Stdout, rows)
		return nil
	})
	run("sizes", func() error {
		rep, err := experiments.Sizes(sys.Server)
		if err != nil {
			return err
		}
		experiments.WriteSizes(os.Stdout, rep)
		return nil
	})
	run("table3", func() error {
		rows, err := sys.Table3()
		if err != nil {
			return err
		}
		qbism.WriteTable3(os.Stdout, rows)
		return nil
	})
	run("table4", func() error {
		lo := 256 - sys.Cfg.BandWidth*4 // the paper's 128-159 band at width 32
		hi := lo + sys.Cfg.BandWidth - 1
		rows, err := experiments.Table4(sys.Server, lo, hi)
		if err != nil {
			return err
		}
		experiments.WriteTable4(os.Stdout, rows, lo, hi)
		return nil
	})
	run("mingap", func() error {
		rows, err := experiments.MingapSweep(sys.Server, []uint64{1, 2, 4, 8, 16, 32, 64})
		if err != nil {
			return err
		}
		experiments.WriteMingap(os.Stdout, rows)
		return nil
	})
}
