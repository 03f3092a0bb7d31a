package dx

import (
	"fmt"
	"math"

	"qbism/internal/atlas"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// RenderMesh rasterizes a structure's triangular surface mesh with flat
// Lambertian shading into a size x size image, projecting along the
// given axis — the paper's fast surface rendering of atlas structures
// (Figure 6a). If tex is non-nil, the surface is modulated by the study
// intensity nearest each triangle (Figure 6c's "PET data mapped onto the
// surface of the structure").
func RenderMesh(m *atlas.Mesh, axis, size int, scale float64, tex *volume.DataRegion) (*Image, error) {
	if axis < 0 || axis > 2 {
		return nil, fmt.Errorf("dx: invalid projection axis %d", axis)
	}
	if size < 1 {
		return nil, fmt.Errorf("dx: invalid image size %d", size)
	}
	if scale <= 0 {
		scale = 1
	}
	img := &Image{W: size, H: size, Pix: make([]uint8, size*size)}
	zbuf := make([]float32, size*size)
	for i := range zbuf {
		zbuf[i] = float32(math.Inf(-1))
	}
	// Fixed light direction (toward the viewer, tilted).
	var texCurve sfc.Curve
	if tex != nil {
		texCurve = tex.Region.Curve()
	}
	for _, tri := range m.Triangles {
		v0 := project(m.Vertices[tri[0]], axis, scale)
		v1 := project(m.Vertices[tri[1]], axis, scale)
		v2 := project(m.Vertices[tri[2]], axis, scale)
		// Face normal from the projected-space edges (z = depth).
		nx, ny, nz := normal(v0, v1, v2)
		// Lambert shade with light from (0.3, -0.5, 0.8).
		shade := nx*0.3 + ny*-0.5 + nz*0.8
		if shade < 0 {
			shade = -shade // double-sided
		}
		base := 55 + 200*shade
		if base > 255 {
			base = 255
		}
		// Optional texture: sample the study at the triangle centroid.
		if tex != nil {
			c0 := m.Vertices[tri[0]]
			c1 := m.Vertices[tri[1]]
			c2 := m.Vertices[tri[2]]
			cx := (c0.X + c1.X + c2.X) / 3
			cy := (c0.Y + c1.Y + c2.Y) / 3
			cz := (c0.Z + c1.Z + c2.Z) / 3
			if val, ok := sampleTexture(tex, texCurve, cx, cy, cz); ok {
				base = base * (0.35 + 0.65*float64(val)/255)
			}
		}
		rasterize(img, zbuf, v0, v1, v2, uint8(base))
	}
	return img, nil
}

// vec2z is a projected vertex: image coordinates plus depth.
type vec2z struct {
	x, y, z float64
}

func project(v atlas.Vec3, axis int, scale float64) vec2z {
	switch axis {
	case 0:
		return vec2z{x: float64(v.Y) * scale, y: float64(v.Z) * scale, z: float64(v.X)}
	case 1:
		return vec2z{x: float64(v.X) * scale, y: float64(v.Z) * scale, z: float64(v.Y)}
	default:
		return vec2z{x: float64(v.X) * scale, y: float64(v.Y) * scale, z: float64(v.Z)}
	}
}

func normal(a, b, c vec2z) (float64, float64, float64) {
	ux, uy, uz := b.x-a.x, b.y-a.y, b.z-a.z
	vx, vy, vz := c.x-a.x, c.y-a.y, c.z-a.z
	nx := uy*vz - uz*vy
	ny := uz*vx - ux*vz
	nz := ux*vy - uy*vx
	l := math.Sqrt(nx*nx + ny*ny + nz*nz)
	if l == 0 {
		return 0, 0, 1
	}
	return nx / l, ny / l, nz / l
}

// rasterize fills the triangle into img with z-buffering.
func rasterize(img *Image, zbuf []float32, a, b, c vec2z, shade uint8) {
	minX := int(math.Floor(math.Min(a.x, math.Min(b.x, c.x))))
	maxX := int(math.Ceil(math.Max(a.x, math.Max(b.x, c.x))))
	minY := int(math.Floor(math.Min(a.y, math.Min(b.y, c.y))))
	maxY := int(math.Ceil(math.Max(a.y, math.Max(b.y, c.y))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= img.W {
		maxX = img.W - 1
	}
	if maxY >= img.H {
		maxY = img.H - 1
	}
	area := (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
	if area == 0 {
		return
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w0 := ((b.x-px)*(c.y-py) - (b.y-py)*(c.x-px)) / area
			w1 := ((c.x-px)*(a.y-py) - (c.y-py)*(a.x-px)) / area
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := float32(w0*a.z + w1*b.z + w2*c.z)
			idx := (img.H-1-y)*img.W + x
			if depth > zbuf[idx] {
				zbuf[idx] = depth
				img.Pix[idx] = shade
			}
		}
	}
}

// sampleTexture reads the study value nearest a mesh position, searching
// a small neighbourhood because mesh vertices sit on voxel corners.
func sampleTexture(d *volume.DataRegion, c sfc.Curve, x, y, z float32) (uint8, bool) {
	side := int32(1) << c.Bits()
	clamp := func(v float32) uint32 {
		i := int32(v)
		if i < 0 {
			i = 0
		}
		if i >= side {
			i = side - 1
		}
		return uint32(i)
	}
	for _, d3 := range [][3]float32{{0, 0, 0}, {-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {-1, -1, -1}} {
		p := sfc.Pt(clamp(x+d3[0]), clamp(y+d3[1]), clamp(z+d3[2]))
		if v, ok := d.ValueAtID(c.ID(p)); ok {
			return v, true
		}
	}
	return 0, false
}
