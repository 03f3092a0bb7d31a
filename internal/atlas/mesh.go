package atlas

import (
	"encoding/binary"
	"fmt"
	"math"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// Mesh is a triangular surface mesh — the second long-field column of
// the Atlas Structure entity, used for fast surface rendering with
// optional study data texture-mapped onto it.
type Mesh struct {
	Vertices  []Vec3
	Triangles [][3]uint32
}

// Vec3 is a mesh vertex position in voxel coordinates.
type Vec3 struct {
	X, Y, Z float32
}

// MeshFromRegion extracts the boundary surface of a volumetric region:
// every voxel face whose neighbour is outside the region contributes two
// triangles. Vertices are deduplicated.
func MeshFromRegion(r *region.Region) *Mesh {
	m := &Mesh{}
	vertexIndex := make(map[[3]int32]uint32)
	vertex := func(x, y, z int32) uint32 {
		key := [3]int32{x, y, z}
		if idx, ok := vertexIndex[key]; ok {
			return idx
		}
		idx := uint32(len(m.Vertices))
		vertexIndex[key] = idx
		m.Vertices = append(m.Vertices, Vec3{X: float32(x), Y: float32(y), Z: float32(z)})
		return idx
	}
	side := int32(1) << r.Curve().Bits()
	inside := func(x, y, z int32) bool {
		if x < 0 || y < 0 || z < 0 || x >= side || y >= side || z >= side {
			return false
		}
		return r.ContainsPoint(sfc.Pt(uint32(x), uint32(y), uint32(z)))
	}
	// For each boundary face emit a quad as two triangles. The quad
	// corners are the 4 voxel-corner lattice points of that face.
	emitFace := func(c [4][3]int32) {
		i0 := vertex(c[0][0], c[0][1], c[0][2])
		i1 := vertex(c[1][0], c[1][1], c[1][2])
		i2 := vertex(c[2][0], c[2][1], c[2][2])
		i3 := vertex(c[3][0], c[3][1], c[3][2])
		m.Triangles = append(m.Triangles, [3]uint32{i0, i1, i2}, [3]uint32{i0, i2, i3})
	}
	r.ForEachPoint(func(p sfc.Point) bool {
		x, y, z := int32(p.X), int32(p.Y), int32(p.Z)
		if !inside(x-1, y, z) {
			emitFace([4][3]int32{{x, y, z}, {x, y + 1, z}, {x, y + 1, z + 1}, {x, y, z + 1}})
		}
		if !inside(x+1, y, z) {
			emitFace([4][3]int32{{x + 1, y, z}, {x + 1, y, z + 1}, {x + 1, y + 1, z + 1}, {x + 1, y + 1, z}})
		}
		if !inside(x, y-1, z) {
			emitFace([4][3]int32{{x, y, z}, {x, y, z + 1}, {x + 1, y, z + 1}, {x + 1, y, z}})
		}
		if !inside(x, y+1, z) {
			emitFace([4][3]int32{{x, y + 1, z}, {x + 1, y + 1, z}, {x + 1, y + 1, z + 1}, {x, y + 1, z + 1}})
		}
		if !inside(x, y, z-1) {
			emitFace([4][3]int32{{x, y, z}, {x + 1, y, z}, {x + 1, y + 1, z}, {x, y + 1, z}})
		}
		if !inside(x, y, z+1) {
			emitFace([4][3]int32{{x, y, z + 1}, {x, y + 1, z + 1}, {x + 1, y + 1, z + 1}, {x + 1, y, z + 1}})
		}
		return true
	})
	return m
}

// Marshal serializes the mesh for long-field storage.
func (m *Mesh) Marshal() []byte {
	out := make([]byte, 8, 8+12*len(m.Vertices)+12*len(m.Triangles))
	binary.BigEndian.PutUint32(out[0:], uint32(len(m.Vertices)))
	binary.BigEndian.PutUint32(out[4:], uint32(len(m.Triangles)))
	var buf [4]byte
	putF := func(f float32) {
		binary.BigEndian.PutUint32(buf[:], math.Float32bits(f))
		out = append(out, buf[:]...)
	}
	for _, v := range m.Vertices {
		putF(v.X)
		putF(v.Y)
		putF(v.Z)
	}
	for _, t := range m.Triangles {
		for _, idx := range t {
			binary.BigEndian.PutUint32(buf[:], idx)
			out = append(out, buf[:]...)
		}
	}
	return out
}

// UnmarshalMesh reverses Marshal.
func UnmarshalMesh(data []byte) (*Mesh, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("atlas: mesh header truncated")
	}
	nv := binary.BigEndian.Uint32(data[0:])
	nt := binary.BigEndian.Uint32(data[4:])
	need := 8 + 12*uint64(nv) + 12*uint64(nt)
	if uint64(len(data)) < need {
		return nil, fmt.Errorf("atlas: mesh body truncated (%d < %d)", len(data), need)
	}
	m := &Mesh{
		Vertices:  make([]Vec3, nv),
		Triangles: make([][3]uint32, nt),
	}
	off := 8
	getF := func() float32 {
		f := math.Float32frombits(binary.BigEndian.Uint32(data[off:]))
		off += 4
		return f
	}
	for i := range m.Vertices {
		m.Vertices[i] = Vec3{X: getF(), Y: getF(), Z: getF()}
	}
	for i := range m.Triangles {
		for j := 0; j < 3; j++ {
			idx := binary.BigEndian.Uint32(data[off:])
			off += 4
			if idx >= nv {
				return nil, fmt.Errorf("atlas: triangle %d references vertex %d of %d", i, idx, nv)
			}
			m.Triangles[i][j] = idx
		}
	}
	return m, nil
}
