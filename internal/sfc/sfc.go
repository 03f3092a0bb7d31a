// Package sfc implements the space-filling curves QBISM uses to linearize
// 3D grids: the Hilbert curve (best spatial clustering), the Z curve
// (Morton order / bit interleaving), and plain row-major scanline order.
//
// A curve of dimension dim and order bits maps each point of the
// [0,2^bits)^dim grid to a unique position ("id") on a 1D path of length
// 2^(dim*bits). REGIONs are stored as runs of consecutive ids and VOLUMEs
// as intensity lists sorted by id, so the curve choice determines how many
// runs a shape fragments into and therefore how much I/O queries cost.
package sfc

import "fmt"

// Kind identifies one of the supported curve families.
type Kind int

const (
	// Hilbert is the Hilbert curve: every pair of consecutive ids are
	// grid neighbours, which gives the best clustering of the three.
	Hilbert Kind = iota
	// ZOrder is the Z (Morton, bit-shuffling) curve.
	ZOrder
	// Scanline is row-major order: x fastest, then y, then z.
	Scanline
)

// String returns the conventional lowercase name of the curve kind.
func (k Kind) String() string {
	switch k {
	case Hilbert:
		return "hilbert"
	case ZOrder:
		return "zorder"
	case Scanline:
		return "scanline"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Curve is a bijection between grid points and positions along a
// space-filling path over the [0,2^Bits())^Dim() grid.
//
// Implementations must be safe for concurrent use; all provided
// implementations are stateless values.
type Curve interface {
	// Kind reports which curve family this is.
	Kind() Kind
	// Dim returns the grid dimensionality (2 or 3 in this package).
	Dim() int
	// Bits returns the number of bits per coordinate (grid side = 1<<Bits).
	Bits() int
	// Length returns the total number of grid points, 1 << (Dim*Bits).
	Length() uint64
	// ID maps grid coordinates to the position along the curve.
	// Coordinates must lie in [0, 1<<Bits); otherwise ID panics.
	ID(p Point) uint64
	// Point maps a curve position back to grid coordinates.
	// id must lie in [0, Length()); otherwise Point panics.
	Point(id uint64) Point
}

// Point is a grid point. For 2D curves Z is ignored and must be zero.
type Point struct {
	X, Y, Z uint32
}

// Pt is shorthand for constructing a Point.
func Pt(x, y, z uint32) Point { return Point{X: x, Y: y, Z: z} }

// String renders the point as "(x,y,z)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d,%d)", p.X, p.Y, p.Z) }

// New returns a curve of the given kind over a dim-dimensional grid with
// bits bits per coordinate. dim must be 2 or 3 and dim*bits must not
// exceed 63 so ids fit in uint64 with room for arithmetic. It does not
// allocate: every admissible curve is boxed once, in curves.
func New(kind Kind, dim, bits int) (Curve, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("sfc: unsupported dimension %d (want 2 or 3)", dim)
	}
	if bits < 1 || dim*bits > 63 {
		return nil, fmt.Errorf("sfc: invalid bits %d for dim %d", bits, dim)
	}
	if kind < Hilbert || kind > Scanline {
		return nil, fmt.Errorf("sfc: unknown curve kind %d", int(kind))
	}
	return curves[kind][dim-2][bits], nil
}

// curves holds every curve New admits, indexed [kind][dim-2][bits].
// Decoders call New once per stored REGION they open; converting a
// curve struct to a Curve there would allocate each time.
var curves = func() (t [Scanline + 1][2][32]Curve) {
	for dim := 2; dim <= 3; dim++ {
		for bits := 1; dim*bits <= 63; bits++ {
			t[Hilbert][dim-2][bits] = hilbertCurve{dim: dim, bits: bits}
			t[ZOrder][dim-2][bits] = zCurve{dim: dim, bits: bits}
			t[Scanline][dim-2][bits] = scanCurve{dim: dim, bits: bits}
		}
	}
	return t
}()

// MustNew is New but panics on error; for use with constant arguments.
func MustNew(kind Kind, dim, bits int) Curve {
	c, err := New(kind, dim, bits)
	if err != nil {
		panic(err)
	}
	return c
}

func checkPoint(p Point, dim, bits int) {
	max := uint32(1) << bits
	if p.X >= max || p.Y >= max || (dim == 3 && p.Z >= max) || (dim == 2 && p.Z != 0) {
		panic(fmt.Sprintf("sfc: point %v out of range for dim=%d bits=%d", p, dim, bits))
	}
}

func checkID(id uint64, dim, bits int) {
	if id >= uint64(1)<<(dim*bits) {
		panic(fmt.Sprintf("sfc: id %d out of range for dim=%d bits=%d", id, dim, bits))
	}
}
