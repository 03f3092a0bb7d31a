package synth

import (
	"fmt"
	"math/rand"

	"qbism/internal/par"
	"qbism/internal/warp"
)

// RawStudy is one acquired study in patient space, as it would arrive
// from the scanner: an anisotropic slice stack plus the fiducial
// landmarks used to register it to the atlas.
type RawStudy struct {
	StudyID   int
	PatientID int
	Modality  Modality
	Date      string
	Grid      warp.Grid
	Data      []byte // scanline order, Grid.NumVoxels() bytes
	// Landmarks map patient-space positions to atlas-space positions
	// (as fractions scaled by atlasSide). Loaders fit the warp from
	// these, as the paper's semi-automatic registration would.
	Landmarks []warp.Landmark
	// TrueWarp is the generating atlas-from-patient transformation,
	// retained for testing registration accuracy. Real data has no such
	// ground truth.
	TrueWarp warp.Affine
}

// Params configures study synthesis.
type Params struct {
	StudyID   int
	PatientID int
	Modality  Modality
	Seed      uint64
	// Grid is the patient-space acquisition grid. Zero means the
	// modality default scaled to AtlasSide (PET 1x1x0.4, MRI 4x4x0.34
	// of the atlas side, echoing the paper's 128x128x51 and 512x512x44).
	Grid warp.Grid
	// AtlasSide is the atlas-space cube side the study will be warped to.
	AtlasSide int
	// Misalignment scales the random patient-space displacement
	// (rotation, scale, shift). Zero selects a realistic default.
	Misalignment float64
}

// DefaultGrid returns the modality's acquisition grid for an atlas side,
// mirroring the paper's slice geometry.
func DefaultGrid(m Modality, atlasSide int) warp.Grid {
	switch m {
	case PET:
		return warp.Grid{NX: atlasSide, NY: atlasSide, NZ: atlasSide * 51 / 128}
	default:
		return warp.Grid{NX: atlasSide * 4, NY: atlasSide * 4, NZ: atlasSide * 44 / 128}
	}
}

// sampleGrain is the fewest phantom samples worth handing to another
// goroutine (a few milliseconds of work).
const sampleGrain = 1 << 15

// Generate synthesizes one raw study.
func Generate(p Params) (*RawStudy, error) {
	if p.AtlasSide < 8 {
		return nil, fmt.Errorf("synth: atlas side %d too small", p.AtlasSide)
	}
	grid := p.Grid
	if grid.NumVoxels() == 0 {
		grid = DefaultGrid(p.Modality, p.AtlasSide)
	}
	if grid.NX < 2 || grid.NY < 2 || grid.NZ < 2 {
		return nil, fmt.Errorf("synth: degenerate grid %+v", grid)
	}
	mis := p.Misalignment
	if mis == 0 {
		mis = 1
	}
	rng := rand.New(rand.NewSource(int64(p.Seed)))
	side := float64(p.AtlasSide)

	// Patient-space -> atlas-space transformation: first normalize the
	// acquisition grid onto the atlas cube, then apply a small random
	// misalignment (the patient is never perfectly positioned).
	normalize := warp.Scale(
		side/float64(grid.NX),
		side/float64(grid.NY),
		side/float64(grid.NZ),
	)
	jitter := warp.RotateZ((rng.Float64() - 0.5) * 0.12 * mis).
		Compose(warp.Scale(1+(rng.Float64()-0.5)*0.08*mis, 1+(rng.Float64()-0.5)*0.08*mis, 1+(rng.Float64()-0.5)*0.08*mis)).
		Compose(warp.Translate((rng.Float64()-0.5)*6*mis, (rng.Float64()-0.5)*6*mis, (rng.Float64()-0.5)*4*mis))
	atlasFromPatient := normalize.Compose(jitter)

	patientFromAtlas, err := atlasFromPatient.Inverse()
	if err != nil {
		return nil, fmt.Errorf("synth: degenerate warp: %v", err)
	}

	// Sample the phantom through the warp, slabs of slices at a time.
	// Intensity is a pure function of position, so the cut is invisible
	// in the data; each slab gets its own Phantom for the noise caches.
	data := make([]byte, grid.NumVoxels())
	slice := grid.NX * grid.NY
	par.For(grid.NZ, 1+sampleGrain/slice, func(z0, z1 int) {
		phantom := NewPhantom(p.Modality, p.Seed)
		i := z0 * slice
		for z := z0; z < z1; z++ {
			for y := 0; y < grid.NY; y++ {
				for x := 0; x < grid.NX; x++ {
					ax, ay, az := atlasFromPatient.Apply(float64(x), float64(y), float64(z))
					data[i] = phantom.Intensity(ax/side, ay/side, az/side)
					i++
				}
			}
		}
	})

	// Fiducial landmarks: known atlas positions observed in patient
	// space with sub-voxel jitter (operator marking error).
	var marks []warp.Landmark
	for _, f := range [][3]float64{
		{0.3, 0.3, 0.3}, {0.7, 0.3, 0.3}, {0.3, 0.7, 0.3}, {0.3, 0.3, 0.7},
		{0.7, 0.7, 0.4}, {0.5, 0.5, 0.6}, {0.6, 0.4, 0.6}, {0.4, 0.6, 0.5},
	} {
		ax, ay, az := f[0]*side, f[1]*side, f[2]*side
		px, py, pz := patientFromAtlas.Apply(ax, ay, az)
		marks = append(marks, warp.Landmark{
			SX: px + (rng.Float64()-0.5)*0.2,
			SY: py + (rng.Float64()-0.5)*0.2,
			SZ: pz + (rng.Float64()-0.5)*0.2,
			TX: ax, TY: ay, TZ: az,
		})
	}

	return &RawStudy{
		StudyID:   p.StudyID,
		PatientID: p.PatientID,
		Modality:  p.Modality,
		Date:      fmt.Sprintf("1993-%02d-%02d", 1+int(p.Seed%12), 1+int(p.Seed%27)),
		Grid:      grid,
		Data:      data,
		Landmarks: marks,
		TrueWarp:  atlasFromPatient,
	}, nil
}

// Register fits the atlas-from-patient warp from the study's landmarks.
func (s *RawStudy) Register() (warp.Affine, error) {
	return warp.FitLandmarks(s.Landmarks)
}

// WarpToAtlas registers the study and resamples it into an
// atlasSide^3 scanline-order volume — the load-time processing of
// Section 2.2.
func (s *RawStudy) WarpToAtlas(atlasSide int) ([]byte, warp.Affine, error) {
	a, err := s.Register()
	if err != nil {
		return nil, warp.Affine{}, err
	}
	out, err := warp.Resample(s.Grid, s.Data, a, atlasSide)
	if err != nil {
		return nil, warp.Affine{}, err
	}
	return out, a, nil
}
