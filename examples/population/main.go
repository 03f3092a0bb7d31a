// Population: the paper's Section 7 future directions running against a
// loaded database — spatial indexing over a population of studies,
// study-to-study similarity search, and association-rule mining over
// intensity patterns and demographics.
package main

import (
	"fmt"
	"log"

	"qbism"
	"qbism/internal/experiments"
)

func main() {
	fmt.Println("loading synthetic database with 6 PET + 2 MRI studies...")
	sys, err := qbism.NewSystem(qbism.Config{
		Bits:         6,
		NumPET:       6,
		NumMRI:       2,
		Seed:         1234,
		SmallStudies: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// 1. Spatial indexing: "which studies show medium-or-higher activity
	// near this location?" answered through an R-tree over the band
	// REGIONs' bounding boxes instead of opening every region.
	idx, err := experiments.BuildActivityIndex(sys.Server, 128)
	if err != nil {
		log.Fatal(err)
	}
	side := uint32(sys.Side())
	q := qbism.Box{
		Min: qbism.Pt(side/3, side/3, side/3),
		Max: qbism.Pt(side/2, side/2, side/2),
	}
	hits, stats := idx.StudiesNear(q)
	fmt.Printf("\nactivity index: %d band regions indexed\n", idx.Len())
	fmt.Printf("query box (%d,%d,%d)-(%d,%d,%d): %d hits with %d box tests\n",
		q.Min.X, q.Min.Y, q.Min.Z, q.Max.X, q.Max.Y, q.Max.Z, len(hits), stats.BoxTests)
	byStudy := map[int]bool{}
	for _, h := range hits {
		byStudy[h.StudyID] = true
	}
	fmt.Printf("studies with activity near the query box: %d of %d\n", len(byStudy), len(sys.Studies))

	// 2. Similarity search: "find the studies most similar to study 1
	// inside the cerebellum" (the paper's Ms. Smith query).
	matches, err := experiments.SimilarStudies(sys.Server, 1, "cerebellum", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstudies most similar to study 1 inside the cerebellum:")
	for _, m := range matches {
		fmt.Printf("  study %d (feature distance %.3f)\n", m.ID, m.Distance)
	}

	// 3. Association mining: which intensity patterns co-occur with
	// which demographics across the population?
	rules, err := experiments.MineAssociations(sys.Server, 128, 0.005, 3, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nassociation rules (minSupport 3 studies, minConfidence 0.8): %d found\n", len(rules))
	max := len(rules)
	if max > 8 {
		max = 8
	}
	for _, r := range rules[:max] {
		fmt.Printf("  %s\n", r)
	}
}
