package synth

import (
	"math"

	"qbism/internal/atlas"
)

// Modality distinguishes functional (PET) from structural (MRI) studies.
type Modality int

const (
	// PET studies show physiological activity: smooth blobby intensity
	// concentrated in grey matter with focal hotspots.
	PET Modality = iota
	// MRI studies show soft-tissue structure: near-piecewise-constant
	// intensity per tissue class with acquisition noise.
	MRI
)

// String names the modality as in the paper.
func (m Modality) String() string {
	if m == PET {
		return "PET"
	}
	return "MRI"
}

// Phantom is the analytic head model evaluated in atlas-space fractional
// coordinates. Each patient gets its own seed, so activity patterns vary
// across "patients" while structural anatomy is shared (all studies are
// registered to the same reference atlas, as in the paper).
//
// Intensity is a pure function of the position, but a Phantom is not
// safe for concurrent use: its noise fields remember the lattice cell
// they last sampled. Goroutines sampling one study each build their own.
type Phantom struct {
	specs    []atlas.StructureSpec
	noise    valueNoise
	hotspots []hotspot
	modality Modality

	// The noise fields Intensity reads, one per (purpose, period).
	air       fractalNoise // detector noise outside the head
	activity  fractalNoise // PET baseline metabolic field
	texture   fractalNoise // MRI textured acquisition noise
	biasField fractalNoise // MRI gentle bias field
}

// hotspot is a focal high-activity site (what mixed queries like
// "intensity 224-255 inside ntal1" find).
type hotspot struct {
	cx, cy, cz float64
	radius     float64
	gain       float64
}

// NewPhantom builds the phantom for one study.
func NewPhantom(modality Modality, seed uint64) *Phantom {
	p := &Phantom{
		specs:    atlas.Specs(),
		noise:    valueNoise{seed: seed},
		modality: modality,
	}
	p.air = newFractalNoise(p.noise, 3)
	p.activity = newFractalNoise(p.noise, 22)
	p.texture = newFractalNoise(p.noise, 5)
	p.biasField = newFractalNoise(p.noise, 60)
	if modality == PET {
		// Deterministic per-seed hotspot placement inside the brain.
		h := valueNoise{seed: seed ^ 0x5117}
		for i := 0; i < 3; i++ {
			fi := float64(i)
			p.hotspots = append(p.hotspots, hotspot{
				cx:     0.35 + 0.3*h.hash(int64(i), 1, 0),
				cy:     0.40 + 0.3*h.hash(int64(i), 2, 0),
				cz:     0.35 + 0.25*h.hash(int64(i), 3, 0),
				radius: 0.03 + 0.02*h.hash(int64(i), 4, 0) + 0.001*fi,
				gain:   160 + 60*h.hash(int64(i), 5, 0),
			})
		}
	}
	return p
}

// Intensity evaluates the phantom at fractional atlas coordinates
// (each in [0,1)); points outside the head read as faint air noise.
func (p *Phantom) Intensity(x, y, z float64) uint8 {
	if !p.specs[0].Contains(x, y, z) {
		// Air: low-level detector noise.
		return clampU8(6 * p.air.at(x*128, y*128, z*128))
	}
	switch p.modality {
	case PET:
		return p.petIntensity(x, y, z)
	default:
		return p.mriIntensity(x, y, z)
	}
}

func (p *Phantom) petIntensity(x, y, z float64) uint8 {
	// Baseline metabolic activity: smooth field between ~40 and ~150.
	base := 40 + 110*p.activity.at(x*128, y*128, z*128)
	// Voxel-scale acquisition noise. Real PET counts are noisy at the
	// voxel level; this is what gives intensity-band REGIONs their
	// heavy-tailed run/gap ("delta") length distribution (EQ 1).
	base += 24 * (p.white(x, y, z) - 0.5)
	// Grey-matter rim: activity increases toward the cortical surface.
	brainBlob := p.specs[0].Blobs[0]
	dx := (x - brainBlob.CX) / brainBlob.RX
	dy := (y - brainBlob.CY) / brainBlob.RY
	dz := (z - brainBlob.CZ) / brainBlob.RZ
	rr := dx*dx + dy*dy + dz*dz // 0 center .. 1 surface
	base += 35 * rr
	// Focal hotspots.
	for _, h := range p.hotspots {
		ddx, ddy, ddz := x-h.cx, y-h.cy, z-h.cz
		d2 := (ddx*ddx + ddy*ddy + ddz*ddz) / (h.radius * h.radius)
		if d2 < 4 {
			base += h.gain * math.Exp(-d2)
		}
	}
	return clampU8(base)
}

// tissueBase assigns each structure's tissue class an MRI intensity.
var tissueBase = map[string]float64{
	"ntal":        95,
	"putamen":     120,
	"hippocampus": 110,
	"caudate":     118,
	"thalamus":    105,
	"amygdala":    112,
	"cerebellum":  90,
	"brainstem":   85,
}

func (p *Phantom) mriIntensity(x, y, z float64) uint8 {
	// White matter background with structure-dependent contrast.
	base := 70.0
	for i := 3; i < len(p.specs); i++ { // skip whole brain and hemispheres
		if s := &p.specs[i]; s.Contains(x, y, z) {
			if v, ok := tissueBase[s.Name]; ok {
				base = v
			}
			break
		}
	}
	// Acquisition noise (voxel-scale and textured) and gentle bias field.
	base += 12*(p.white(x, y, z)-0.5) +
		12*(p.texture.at(x*128, y*128, z*128)-0.5) +
		10*(p.biasField.at(x*128, y*128, z*128)-0.5)
	return clampU8(base)
}

// white is voxel-scale white noise: a hash of the quantized position
// (quantization at the reference 128-grid so the phantom stays
// resolution-independent in its statistics).
func (p *Phantom) white(x, y, z float64) float64 {
	return valueNoise{seed: p.noise.seed ^ 0x77e1}.hash(
		int64(x*128), int64(y*128), int64(z*128))
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v)
}
