// Multistudy: queries across a population of studies — the capability
// the paper argues databases must add to medical visualization. Runs the
// Table 4 n-way intersection ("the REGION where all PET studies
// consistently show intensities in a band") under all three REGION
// encodings, then the voxel-wise average the paper sketches in §6.4.
package main

import (
	"fmt"
	"log"
	"os"

	"qbism"
	"qbism/internal/experiments"
)

func main() {
	fmt.Println("loading synthetic database with 5 PET studies...")
	sys, err := qbism.NewSystem(qbism.Config{
		Bits:               6,
		NumPET:             5,
		NumMRI:             0,
		Seed:               7,
		SmallStudies:       true,
		ExtraBandEncodings: true, // store z-run and octant band encodings too
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Table 4's query: the consistent-activity REGION across all 5
	// studies, once per encoding method. Hilbert runs should read the
	// fewest pages.
	lo, hi := 128, 159
	rows, err := experiments.Table4(sys.Server, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	experiments.WriteTable4(os.Stdout, rows, lo, hi)

	// §6.4's envisioned aggregate: "display the voxel-wise average
	// intensity inside ntal for these PET studies" — the database reads
	// only the relevant pages of each study.
	st, err := sys.Atlas.ByName("ntal")
	if err != nil {
		log.Fatal(err)
	}
	var vols []*qbism.Volume
	for _, id := range sys.PETStudyIDs() {
		res := sys.DB.MustExec(fmt.Sprintf(
			`select wv.data from warpedVolume wv where wv.studyId = %d`, id))
		data, err := sys.LFM.Read(res.Rows[0][0].L)
		if err != nil {
			log.Fatal(err)
		}
		v, err := qbism.NewVolume(sys.Curve, data)
		if err != nil {
			log.Fatal(err)
		}
		vols = append(vols, v)
	}
	mean, err := qbism.VoxelwiseMean(st.Region, vols)
	if err != nil {
		log.Fatal(err)
	}
	ms := mean.Stats()
	fmt.Printf("\nvoxel-wise average inside ntal over %d studies: %d voxels, mean intensity %.1f\n",
		len(vols), ms.N, ms.Mean)

	// The same consistency question through the CONTAINS operator: does
	// the consistent region stay inside the brain? The region itself comes
	// from the parallel band intersection (Table 4 reports only counts).
	consistent, err := sys.ConsistentBandRegion(sys.PETStudyIDs(), lo, hi, qbism.BandEncodingHilbertNaive, 0)
	if err != nil {
		log.Fatal(err)
	}
	if consistent.NumVoxels() != rows[0].ResultVox {
		log.Fatalf("direct intersection (%d voxels) disagrees with Table 4 (%d)",
			consistent.NumVoxels(), rows[0].ResultVox)
	}
	brain := sys.Atlas.Brain().Region
	inside, err := qbism.Contains(brain, consistent)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent region inside the brain: %v (%d voxels)\n", inside, consistent.NumVoxels())
}
