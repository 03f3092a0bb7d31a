// Brainmapping: the paper's motivating scenario end to end. Load a
// synthetic database (atlas + PET studies warped and banded at load
// time), then ask the Section 1 query — "show the regions of high
// intensity in the right brain hemisphere" — as a mixed spatial/
// attribute query. The result is rendered as a maximum-intensity
// projection and as a surface mesh with the PET data texture-mapped
// onto it (the paper's Figure 6c).
package main

import (
	"fmt"
	"log"
	"os"

	"qbism"
)

func main() {
	fmt.Println("loading synthetic brain-mapping database...")
	sys, err := qbism.NewSystem(qbism.Config{
		Bits:         6, // 64^3 atlas; use 7 for full paper scale
		NumPET:       2,
		NumMRI:       1,
		Seed:         42,
		SmallStudies: true,
		WithMeshes:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fmt.Printf("loaded: %d structures, %d studies\n\n", len(sys.Atlas.Structures), len(sys.Studies))

	// Mixed query: high activity inside the right hemisphere (ntal2) of
	// the first PET study.
	spec := qbism.QuerySpec{
		StudyID:   1,
		Atlas:     "Talairach",
		Structure: "ntal2",
		HasBand:   true,
		BandLo:    128,
		BandHi:    159,
	}
	res, err := sys.RunQuery(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", spec.Label())
	fmt.Printf("patient %s, study date %s\n", res.Meta.Patient, res.Meta.Date)
	st := res.Field.Stats()
	fmt.Printf("result: %d voxels in %d h-runs, intensities %d-%d\n",
		st.N, res.Timing.HRuns, st.Min, st.Max)
	fmt.Printf("cost: %d LFM page I/Os, %d network messages, %.1fs simulated 1993 total\n\n",
		res.Timing.LFMPages, res.Timing.NetMessages, qbism.PriceQuery(res).Total.Seconds())

	// Figure 6b: the intensity data inside the structure, as a MIP.
	writePGM("activity_mip.pgm", res.Image)

	// Figure 6c: PET data mapped onto the structure surface.
	hemi, err := sys.Atlas.ByName("ntal2")
	if err != nil {
		log.Fatal(err)
	}
	full, err := sys.RunQuery(qbism.QuerySpec{
		StudyID: 1, Atlas: "Talairach", Structure: "ntal2",
	})
	if err != nil {
		log.Fatal(err)
	}
	tex, err := full.Data() // the texture is looked up by id: decode the REGION
	if err != nil {
		log.Fatal(err)
	}
	surface, err := qbism.RenderMesh(hemi.Mesh, 2, 256, 256/float64(sys.Side()), tex)
	if err != nil {
		log.Fatal(err)
	}
	writePGM("surface_textured.pgm", surface)

	// The DX cache in action: re-displaying a recent query touches no
	// database pages. The mixed query above left its field there.
	before := sys.LFM.Stats().PageReads
	if _, cached, err := sys.RunQueryCached(spec); err != nil {
		log.Fatal(err)
	} else if !cached {
		log.Fatal("expected a cache hit")
	}
	fmt.Printf("cached re-display cost %d page I/Os\n", sys.LFM.Stats().PageReads-before)
}

func writePGM(path string, img *qbism.Image) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := img.WritePGM(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%dx%d)\n", path, img.W, img.H)
}
