package experiments

// Population-scale capabilities — the three future directions of the
// paper's Section 7, built on the loaded database:
//
//  1. spatial indexing over the population's activity regions (spindex),
//  2. association-rule mining over study features (mining),
//  3. feature-vector similarity search between studies (feature).

import (
	"fmt"
	"sort"

	"qbism/internal/feature"
	"qbism/internal/medserver"
	"qbism/internal/mining"
	"qbism/internal/region"
	"qbism/internal/sdb"
	"qbism/internal/spindex"
	"qbism/internal/volume"
)

// ActivityIndex is a spatial index over the bounding boxes of every
// study's high-activity band REGIONs, supporting "which studies show
// activity near here?" without opening each study's REGIONs.
type ActivityIndex struct {
	tree *spindex.RTree
	// entries maps R-tree ids back to (study, band-low) pairs.
	entries map[int64]ActivityEntry
}

// ActivityEntry identifies one indexed band region.
type ActivityEntry struct {
	StudyID int
	BandLo  uint8
	BandHi  uint8
	Voxels  uint64
}

// BuildActivityIndex indexes the bounding boxes of all band REGIONs
// with intensity lower bound >= minIntensity across every study. Studies
// are visited in ascending ID order, so entry ids and the tree's shape —
// and with them StudiesNear's order and SearchStats — replay from the
// seed.
func BuildActivityIndex(srv *medserver.Server, minIntensity uint8) (*ActivityIndex, error) {
	idx := &ActivityIndex{
		tree:    spindex.New(),
		entries: make(map[int64]ActivityEntry),
	}
	next := int64(1)
	for _, studyID := range studyIDs(srv) {
		for _, b := range srv.BandRegions[studyID] {
			if b.Lo < minIntensity || b.Region.Empty() {
				continue
			}
			min, max, ok := b.Region.Bounds()
			if !ok {
				continue
			}
			id := next
			next++
			idx.entries[id] = ActivityEntry{
				StudyID: studyID, BandLo: b.Lo, BandHi: b.Hi, Voxels: b.Region.NumVoxels(),
			}
			if err := idx.tree.Insert(spindex.Entry{
				ID: id,
				Box: spindex.Box3{
					MinX: min.X, MinY: min.Y, MinZ: min.Z,
					MaxX: max.X, MaxY: max.Y, MaxZ: max.Z,
				},
			}); err != nil {
				return nil, err
			}
		}
	}
	return idx, nil
}

// studyIDs returns the ids of the studies holding band REGIONs, ascending.
func studyIDs(srv *medserver.Server) []int {
	ids := make([]int, 0, len(srv.BandRegions))
	for id := range srv.BandRegions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Len returns the number of indexed band regions.
func (a *ActivityIndex) Len() int { return a.tree.Len() }

// StudiesNear returns the entries whose activity bounding boxes
// intersect the query box, plus the index work done.
func (a *ActivityIndex) StudiesNear(b region.Box) ([]ActivityEntry, spindex.SearchStats) {
	ids, st := a.tree.Search(spindex.Box3{
		MinX: b.Min.X, MinY: b.Min.Y, MinZ: b.Min.Z,
		MaxX: b.Max.X, MaxY: b.Max.Y, MaxZ: b.Max.Z,
	})
	out := make([]ActivityEntry, 0, len(ids))
	for _, id := range ids {
		out = append(out, a.entries[id])
	}
	return out, st
}

// readStudyVolume loads a study's warped VOLUME from the database.
func readStudyVolume(srv *medserver.Server, studyID int) (*volume.Volume, error) {
	res, err := srv.DB.Exec(`select wv.data from warpedVolume wv where wv.studyId = ?`, sdb.Int(int64(studyID)))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("qbism: study %d has %d warped volumes", studyID, len(res.Rows))
	}
	data, err := srv.LFM.Read(res.Rows[0][0].L)
	if err != nil {
		return nil, err
	}
	return volume.New(srv.Curve, data)
}

// StudyFeature computes a study's feature vector inside a named
// structure — the feature-extraction half of the paper's similarity
// queries.
func StudyFeature(srv *medserver.Server, studyID int, structure string) (feature.Vector, error) {
	st, err := srv.Atlas.ByName(structure)
	if err != nil {
		return feature.Vector{}, err
	}
	vol, err := readStudyVolume(srv, studyID)
	if err != nil {
		return feature.Vector{}, err
	}
	d, err := volume.Extract(vol, st.Region)
	if err != nil {
		return feature.Vector{}, err
	}
	return feature.Extract(d)
}

// SimilarStudies answers "find the studies with intensities inside
// <structure> most similar to study <studyID>": a k-NN query over the
// per-study feature vectors, served by a VP-tree.
func SimilarStudies(srv *medserver.Server, studyID int, structure string, k int) ([]feature.Match, error) {
	var items []feature.Item
	var query feature.Vector
	found := false
	for _, st := range srv.Studies {
		vec, err := StudyFeature(srv, st.StudyID, structure)
		if err != nil {
			return nil, err
		}
		if st.StudyID == studyID {
			query = vec
			found = true
			continue // exclude the probe study from its own results
		}
		items = append(items, feature.Item{ID: int64(st.StudyID), Vec: vec})
	}
	if !found {
		return nil, fmt.Errorf("qbism: unknown study %d", studyID)
	}
	tree := feature.Build(items)
	matches, _ := tree.Nearest(query, k)
	return matches, nil
}

// StudyTransactions derives the boolean feature sets for association
// mining: for every study, one transaction containing demographic items
// (modality, sex, age decade) and "high:<structure>" items for each
// structure whose intersection with the study's high-intensity bands
// covers at least minFraction of the structure.
func StudyTransactions(srv *medserver.Server, highIntensity uint8, minFraction float64) ([]mining.Transaction, error) {
	patients, err := srv.DB.Exec(`select patientId, age, sex from patient`)
	if err != nil {
		return nil, err
	}
	demo := make(map[int][]mining.Item)
	for _, row := range patients.Rows {
		pid := int(row[0].I)
		decade := row[1].I / 10 * 10
		demo[pid] = []mining.Item{
			mining.Item(fmt.Sprintf("age:%d+", decade)),
			mining.Item("sex:" + row[2].S),
		}
	}

	var txns []mining.Transaction
	for _, st := range srv.Studies {
		items := append([]mining.Item{mining.Item("modality:" + st.Modality.String())},
			demo[st.PatientID]...)
		// Union the high bands, then test each structure.
		high := region.Empty(srv.Curve)
		for _, b := range srv.BandRegions[st.StudyID] {
			if b.Lo >= highIntensity {
				if high, err = region.Union(high, b.Region); err != nil {
					return nil, err
				}
			}
		}
		for _, structure := range srv.Atlas.Structures[3:] { // skip whole brain + hemispheres
			inter, err := region.Intersect(high, structure.Region)
			if err != nil {
				return nil, err
			}
			sv := structure.Region.NumVoxels()
			if sv > 0 && float64(inter.NumVoxels())/float64(sv) >= minFraction {
				items = append(items, mining.Item("high:"+structure.Name))
			}
		}
		txns = append(txns, mining.Transaction{ID: int64(st.StudyID), Items: items})
	}
	return txns, nil
}

// MineAssociations runs the full pipeline: derive transactions and mine
// rules — the paper's "find PET study intensity patterns that are
// associated with any condition in any subpopulation".
func MineAssociations(srv *medserver.Server, highIntensity uint8, minFraction float64, minSupport int, minConfidence float64) ([]mining.Rule, error) {
	txns, err := StudyTransactions(srv, highIntensity, minFraction)
	if err != nil {
		return nil, err
	}
	return mining.Rules(txns, minSupport, minConfidence)
}
