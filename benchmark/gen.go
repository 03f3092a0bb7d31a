package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	core "qbism/internal/qbism"
)

const atlasName = "Talairach"

// The atlas's structure names. The hemisphere group holds the three
// large ntal regions (hundreds of thousands of voxels at 128³); the
// small group holds the other eight (hundreds to ~20 k voxels).
var (
	hemisphereNames = []string{"ntal0", "ntal1", "ntal2"}
	smallNames      = []string{"ntal", "putamen", "hippocampus", "caudate", "thalamus", "amygdala", "cerebellum", "brainstem"}
)

// Operation shapes — the six Table 3 query forms.
const (
	shapeFull      = "full"
	shapeBox       = "box"
	shapeSmall     = "small"
	shapeHemi      = "hemisphere"
	shapeBand      = "band"
	shapeSmallBand = "small_band"
)

// op is one generated operation. For population_batch Spec is the
// structure ∩ band template of a sweep (StudyID is filled per study).
type op struct {
	Shape string
	Spec  core.QuerySpec
}

// corpus is what the generator knows about the loaded data: only what
// follows from the Config, never the data itself.
type corpus struct {
	Side    int
	Studies []int
	Bands   [][2]int
}

func corpusOf(cfg core.Config) corpus {
	c := corpus{Side: 1 << cfg.Bits}
	for id := 1; id <= cfg.NumPET+cfg.NumMRI; id++ {
		c.Studies = append(c.Studies, id)
	}
	for lo := 0; lo < 256; lo += cfg.BandWidth {
		c.Bands = append(c.Bands, [2]int{lo, lo + cfg.BandWidth - 1})
	}
	return c
}

func (c corpus) spec(study int) core.QuerySpec {
	return core.QuerySpec{StudyID: study, Atlas: atlasName}
}

func withBand(s core.QuerySpec, b [2]int) core.QuerySpec {
	s.HasBand, s.BandLo, s.BandHi = true, b[0], b[1]
	return s
}

// generate builds a workload's operation list from the seed. The lists
// are stratified, not sampled: every pass holds the same number of each
// shape and walks the shape's parameter combinations evenly, so what a
// seed changes is the order of operations, which study each structure
// or band is paired with, and where the boxes sit — not how much work a
// pass holds. That keeps ten seeds comparable within the bounds while
// still denying a change the chance to fit one fixed list.
func generate(workload string, c corpus, seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	switch workload {
	case wlDXInteractive:
		ops = genInteractive(c, rng)
	case wlDaemonSmall:
		ops = genSmall(c)
	case wlBulkOpen:
		// Three independently shuffled blocks: an open-loop rung is a
		// prefix of the cycled list, and shuffling per block keeps every
		// prefix close to the ⅓/⅓/⅓ mix.
		for block := 0; block < 3; block++ {
			b := genBulkBlock(c)
			shuffle(rng, b)
			ops = append(ops, b...)
		}
		return ops, nil
	case wlPopulationBatch:
		for _, name := range smallNames {
			for _, b := range c.Bands {
				s := withBand(c.spec(0), b)
				s.Structure = name
				ops = append(ops, op{Shape: shapeSmallBand, Spec: s})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	shuffle(rng, ops)
	return ops, nil
}

func shuffle(rng *rand.Rand, ops []op) {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// genInteractive is the uniform mix of the six Table 3 shapes, one of
// each per study.
func genInteractive(c corpus, rng *rand.Rand) []op {
	n := len(c.Studies)
	var ops []op
	for _, study := range c.Studies {
		s := c.spec(study)
		s.FullStudy = true
		ops = append(ops, op{shapeFull, s})
	}
	// Box sides step evenly through [N/8, 5N/8); the origin is random.
	for i, si := range rng.Perm(n) {
		side := c.Side/8 + i*(c.Side/2)/n
		var o [3]uint32
		for a := range o {
			o[a] = uint32(rng.Intn(c.Side - side + 1))
		}
		s := c.spec(c.Studies[si])
		s.Box = &[6]uint32{o[0], o[1], o[2], o[0] + uint32(side) - 1, o[1] + uint32(side) - 1, o[2] + uint32(side) - 1}
		ops = append(ops, op{shapeBox, s})
	}
	for i, si := range rng.Perm(n) {
		s := c.spec(c.Studies[si])
		s.Structure = smallNames[i%len(smallNames)]
		ops = append(ops, op{shapeSmall, s})
	}
	for i, si := range rng.Perm(n) {
		s := c.spec(c.Studies[si])
		s.Structure = hemisphereNames[i%len(hemisphereNames)]
		ops = append(ops, op{shapeHemi, s})
	}
	for i, si := range rng.Perm(n) {
		ops = append(ops, op{shapeBand, withBand(c.spec(c.Studies[si]), c.Bands[i%len(c.Bands)])})
	}
	bandOrder := rng.Perm(len(c.Bands))
	for i, si := range rng.Perm(n) {
		s := withBand(c.spec(c.Studies[si]), c.Bands[bandOrder[i%len(bandOrder)]])
		s.Structure = smallNames[i%len(smallNames)]
		ops = append(ops, op{shapeSmallBand, s})
	}
	return ops
}

// genSmall is 50 % small structure / 50 % small structure ∩ band: every
// (structure, band, study) combination once, and every (structure,
// study) pair once per band to match.
func genSmall(c corpus) []op {
	var ops []op
	for _, study := range c.Studies {
		for _, name := range smallNames {
			s := c.spec(study)
			s.Structure = name
			for _, b := range c.Bands {
				ops = append(ops, op{shapeSmall, s}, op{shapeSmallBand, withBand(s, b)})
			}
		}
	}
	return ops
}

// genBulkBlock is ⅓ full study / ⅓ whole band / ⅓ hemisphere with the
// same content for every seed: each (band, study) once, each study as
// often, and the (hemisphere, study) pairs cycled to the same count.
func genBulkBlock(c corpus) []op {
	var ops []op
	third := len(c.Bands) * len(c.Studies)
	for i := 0; i < third; i++ {
		study := c.Studies[i%len(c.Studies)]
		full := c.spec(study)
		full.FullStudy = true
		hemi := c.spec(study)
		hemi.Structure = hemisphereNames[(i/len(c.Studies))%len(hemisphereNames)]
		ops = append(ops,
			op{shapeFull, full},
			op{shapeBand, withBand(c.spec(study), c.Bands[i/len(c.Studies)])},
			op{shapeHemi, hemi})
	}
	return ops
}

// opsHash fingerprints an operation list (order included).
func opsHash(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%s|%s\n", o.Shape, o.Spec.Key())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// specKey identifies a generated spec. It is comparable, so looking a
// reply's spec up on the timed path costs no allocation (QuerySpec.Key
// marshals JSON).
type specKey struct {
	study     int
	full      bool
	structure string
	hasBox    bool
	box       [6]uint32
	band      [2]int
}

func keyOf(s core.QuerySpec) specKey {
	k := specKey{study: s.StudyID, full: s.FullStudy, structure: s.Structure}
	if s.Box != nil {
		k.hasBox, k.box = true, *s.Box
	}
	if s.HasBand {
		k.band = [2]int{s.BandLo, s.BandHi}
	}
	return k
}

// distinctSpecs returns the list's distinct query specs in first-use
// order. A population_batch sweep expands to its per-study specs.
func distinctSpecs(workload string, c corpus, ops []op) []core.QuerySpec {
	seen := make(map[specKey]bool)
	var out []core.QuerySpec
	add := func(s core.QuerySpec) {
		if k := keyOf(s); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	for _, o := range ops {
		if workload != wlPopulationBatch {
			add(o.Spec)
			continue
		}
		for _, s := range sweepSpecs(c, o) {
			add(s)
		}
	}
	return out
}

// sweepSpecs expands a population_batch operation into its per-study
// structure ∩ band queries.
func sweepSpecs(c corpus, o op) []core.QuerySpec {
	specs := make([]core.QuerySpec, len(c.Studies))
	for i, study := range c.Studies {
		specs[i] = o.Spec
		specs[i].StudyID = study
	}
	return specs
}
