package medserver

import (
	"fmt"

	"qbism/internal/lfm"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
)

// registerSpatialUDFs installs the spatial operators of Section 3.2 (and
// the helpers the MedicalServer's generated SQL uses) as user-defined
// SQL functions, the way the prototype extended Starburst. Each carries
// a relative Cost hint so the planner orders same-level predicates
// cheapest-first: voxel extraction (a long-field read) is priced far
// above region algebra, which is priced above pure geometry like
// boxRegion.
//
// A REGION-valued function returns its result parsed (parsedRegion),
// and a REGION argument is taken in whatever form it arrives
// (regionOf), so intersection() nested in extractVoxels() hands over a
// run list with no encoding in between.
func (s *Server) registerSpatialUDFs() error {
	udfs := []*sdb.UDF{
		{
			// INTERSECTION(REGION r1, REGION r2) -> REGION. Both operands
			// stay in their stored form where it is queryable: two
			// k³-trees meet by synchronized descent, and a k³-tree prunes
			// the other's run list — neither is expanded to runs.
			Name: "intersection", MinArgs: 2, MaxArgs: 2, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				a, err := s.regionOf(call.IO(), call, args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				b, err := s.regionOf(call.IO(), call, args[1], false)
				if err != nil {
					return sdb.Value{}, err
				}
				out, err := intersect(a, b)
				if err != nil {
					return sdb.Value{}, err
				}
				return s.parsed(out), nil
			},
		},
		{
			// UNION(r1, r2), mentioned as a straightforward extension.
			Name: "unionRegion", MinArgs: 2, MaxArgs: 2, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				return s.regionBinop(call, args, region.Union)
			},
		},
		{
			// DIFFERENCE(r1, r2), likewise.
			Name: "differenceRegion", MinArgs: 2, MaxArgs: 2, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				return s.regionBinop(call, args, region.Difference)
			},
		},
		{
			// CONTAINS(REGION r1, REGION r2) -> BOOLEAN. The container
			// stays queryable: each run of r2 is one coverage probe
			// against r1's stored representation.
			Name: "contains", MinArgs: 2, MaxArgs: 2, Cost: 20, ProbeOnly: true,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				a, err := s.regionOf(call.IO(), call, args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				b, err := s.regionRuns(call.IO(), call, args[1])
				if err != nil {
					return sdb.Value{}, err
				}
				ok, err := region.ContainsQ(a, b)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bool(ok), nil
			},
		},
		{
			// containsPoint(REGION r, x, y, z) -> BOOLEAN: point
			// membership. On a k³-tree REGION this is an O(depth) descent
			// over the encoded bitmaps — no decode, no run list — which
			// is why its Cost sits just above boxRegion's.
			Name: "containsPoint", MinArgs: 4, MaxArgs: 4, Cost: 2, ProbeOnly: true,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				q, err := s.regionOf(call.IO(), call, args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				if q.Curve().Dim() != 3 {
					return sdb.Value{}, fmt.Errorf("containsPoint: REGION is %dD, want 3D", q.Curve().Dim())
				}
				side := int64(1) << uint(q.Curve().Bits())
				var c [3]uint32
				for i, a := range args[1:] {
					if a.T != sdb.TInt || a.I < 0 || a.I >= side {
						return sdb.Value{}, fmt.Errorf("containsPoint: coordinate %d must be in [0,%d)", i+1, side)
					}
					c[i] = uint32(a.I)
				}
				return sdb.Bool(q.ContainsID(q.Curve().ID(sfc.Pt(c[0], c[1], c[2])))), nil
			},
		},
		{
			// EXTRACT_DATA(VOLUME v, REGION r) -> DATA_REGION
			Name: "extractVoxels", MinArgs: 2, MaxArgs: 2, Cost: 100,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TLong {
					return sdb.Value{}, fmt.Errorf("extractVoxels: first argument must be a VOLUME long field, got %s", args[0].T)
				}
				r, err := s.regionRuns(call.IO(), call, args[1])
				if err != nil {
					return sdb.Value{}, err
				}
				// VOLUMEs are stored in the system's Hilbert order;
				// regions arriving in another order are recoded first.
				if r.Curve().Kind() != s.Curve.Kind() {
					if r, err = r.Recode(s.Curve); err != nil {
						return sdb.Value{}, err
					}
				}
				blob, err := extractStoredBlob(call.IO(), args[0].L, r, s.extractOpts(), s.Cfg.Method)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bytes(blob), nil
			},
		},
		{
			// fullVolume(VOLUME v) -> DATA_REGION over the whole grid
			// (the "flat file" access path of query Q1).
			Name: "fullVolume", MinArgs: 1, MaxArgs: 1, Cost: 100,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TLong {
					return sdb.Value{}, fmt.Errorf("fullVolume: argument must be a VOLUME long field, got %s", args[0].T)
				}
				// The whole grid is one run, so this is extractVoxels' read
				// plan with a single range: one read of the whole field,
				// straight into the blob.
				blob, err := extractStoredBlob(call.IO(), args[0].L, region.Full(s.Curve), s.extractOpts(), s.Cfg.Method)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Bytes(blob), nil
			},
		},
		{
			// boxRegion(x0,y0,z0,x1,y1,z1) -> REGION for geometric probes
			// such as Q2's rectangular solid.
			Name: "boxRegion", MinArgs: 6, MaxArgs: 6, Cost: 1,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				var c [6]uint32
				for i, a := range args {
					if a.T != sdb.TInt || a.I < 0 {
						return sdb.Value{}, fmt.Errorf("boxRegion: argument %d must be a non-negative integer", i+1)
					}
					c[i] = uint32(a.I)
				}
				r, err := region.FromBox(s.Curve, region.Box{
					Min: sfc.Pt(c[0], c[1], c[2]),
					Max: sfc.Pt(c[3], c[4], c[5]),
				})
				if err != nil {
					return sdb.Value{}, err
				}
				return s.parsed(r), nil
			},
		},
		{
			// nIntersect(r1, ..., rn) -> REGION: the n-way spatial
			// intersection of the multi-study queries (Table 4).
			Name: "nIntersect", MinArgs: 1, MaxArgs: -1, Cost: 20,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				// The operands meet one at a time, each on the compact form
				// it has (intersect). The first, when stored in another
				// order (z, octant), is normalized onto the system curve,
				// and every later one onto the first; argument order keeps
				// results reproducible.
				var acc region.Queryable
				for _, a := range args {
					q, err := s.regionOf(call.IO(), call, a, false)
					if err != nil {
						return sdb.Value{}, err
					}
					switch {
					case acc != nil:
						q, err = intersect(acc, q)
					case q.Curve().Kind() != s.Curve.Kind():
						q, err = recode(q, s.Curve)
					}
					if err != nil {
						return sdb.Value{}, err
					}
					acc = q
				}
				return s.parsed(acc), nil
			},
		},
		{
			// numVoxels never needs a run list: the k³-tree header carries
			// the count, so a compressed REGION answers from 12 bytes.
			Name: "numVoxels", MinArgs: 1, MaxArgs: 1, Cost: 10, ProbeOnly: true,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				q, err := s.regionOf(call.IO(), call, args[0], false)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Int(int64(q.NumVoxels())), nil
			},
		},
		{
			Name: "numRuns", MinArgs: 1, MaxArgs: 1, Cost: 10,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				r, err := s.regionRuns(call.IO(), call, args[0])
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Int(int64(r.NumRuns())), nil
			},
		},
		{
			// avgIntensity(DATA_REGION) -> FLOAT, a statistical response
			// over an extraction.
			Name: "avgIntensity", MinArgs: 1, MaxArgs: 1, Cost: 10,
			Fn: func(call *sdb.Call, args []sdb.Value) (sdb.Value, error) {
				if args[0].T != sdb.TBytes {
					return sdb.Value{}, fmt.Errorf("avgIntensity: argument must be a DATA_REGION")
				}
				d, err := UnmarshalDataRegion(args[0].Y)
				if err != nil {
					return sdb.Value{}, err
				}
				return sdb.Float(d.Stats().Mean), nil
			},
		},
	}
	for _, u := range udfs {
		if err := s.DB.RegisterUDF(u); err != nil {
			return err
		}
	}
	return nil
}

// regionBinop evaluates a binary spatial operator on run lists,
// recoding the second operand onto the first's curve if needed.
func (s *Server) regionBinop(call *sdb.Call, args []sdb.Value,
	op func(a, b *region.Region) (*region.Region, error)) (sdb.Value, error) {
	a, err := s.regionRuns(call.IO(), call, args[0])
	if err != nil {
		return sdb.Value{}, err
	}
	b, err := s.regionRuns(call.IO(), call, args[1])
	if err != nil {
		return sdb.Value{}, err
	}
	if a.Curve().Kind() != b.Curve().Kind() {
		if b, err = b.Recode(a.Curve()); err != nil {
			return sdb.Value{}, err
		}
	}
	out, err := op(a, b)
	if err != nil {
		return sdb.Value{}, err
	}
	return s.parsed(out), nil
}

// intersect returns a ∩ b on a's curve, computed on the compact form
// wherever an operand has one: two k³-trees meet by synchronized
// descent, a k³-tree prunes the other's run list, and two run lists
// merge. The canonical run list is the same whichever way it is
// computed. An operand on another curve is recoded onto a's first.
func intersect(a, b region.Queryable) (*region.Region, error) {
	if !region.SameCurve(a.Curve(), b.Curve()) {
		r, err := recode(b, a.Curve())
		if err != nil {
			return nil, err
		}
		b = r
	}
	pa, aK3 := a.(*rencode.K3Probe)
	pb, bK3 := b.(*rencode.K3Probe)
	switch {
	case aK3 && bK3:
		return region.FromOwnedRuns(a.Curve(), pa.IntersectK3(pb))
	case bK3:
		return region.IntersectQ(pb, a.(*region.Region))
	default:
		return region.IntersectQ(a, b.(*region.Region))
	}
}

// runsOf returns a REGION as a run list, materializing a k³-tree probe.
func runsOf(q region.Queryable) (*region.Region, error) {
	if p, ok := q.(*rencode.K3Probe); ok {
		return p.Region()
	}
	return q.(*region.Region), nil
}

// recode returns q's voxel set on curve c.
func recode(q region.Queryable, c sfc.Curve) (*region.Region, error) {
	r, err := runsOf(q)
	if err != nil {
		return nil, err
	}
	return r.Recode(c)
}

// parsedRegion is a REGION one spatial function returns to the function
// around it, still parsed: a run list, or a k³-tree probe over the
// stored bytes. sdb carries it as an Object, so it is encoded — in the
// system's storage encoding — only where it leaves that call chain, as
// in Table 4's select nIntersect(...). Nothing holds it past the
// statement: sdb keeps no Object in a row, and drops its argument
// vectors after each call.
type parsedRegion struct {
	q      region.Queryable
	method rencode.Method
}

// parsed wraps a REGION result for the calls around it.
func (s *Server) parsed(q region.Queryable) sdb.Value {
	return sdb.Obj(&parsedRegion{q: q, method: s.Cfg.Method})
}

// Encode is the REGION's BYTES form.
func (p *parsedRegion) Encode() ([]byte, error) {
	r, err := runsOf(p.q)
	if err != nil {
		return nil, err
	}
	return rencode.Encode(p.method, r)
}

// Per-access representation counters: how often a stored or encoded
// REGION was answered on its compressed bytes versus materialized as a
// run list. They feed the benchmark's per-layer rows and EXPLAIN
// ANALYZE.
const (
	metricRegionProbes  = "qbism_region_probe_total"
	metricRegionDecodes = "qbism_region_decode_total"
)

// regionOf is the server's one accessor for a REGION-valued SQL value:
//   - LONG, a stored REGION, read on io's bill;
//   - BYTES, an encoded REGION, or the DATA_REGION blob whose region it
//     is;
//   - OBJECT, the parsed REGION another function of the same statement
//     returned (parsedRegion), taken as it is.
//
// An encoded k³-tree comes back as a *rencode.K3Probe, whose probes and
// intersections answer on the encoded bytes, unless runs is set; every
// other encoding, and a k³-tree when the caller needs the run list,
// comes back a *region.Region. Each stored or encoded REGION read counts
// once, as a probe when it stays encoded and as a decode when it
// becomes runs; a parsed one is not counted again. call — nil outside
// a statement — has the probe noted on its operator as well.
func (s *Server) regionOf(io *lfm.IO, call *sdb.Call, v sdb.Value, runs bool) (region.Queryable, error) {
	var data []byte
	switch v.T {
	case sdb.TObject:
		p, ok := v.O.(*parsedRegion)
		if !ok {
			return nil, fmt.Errorf("qbism: expected a REGION, got a %T", v.O)
		}
		if runs {
			return runsOf(p.q)
		}
		return p.q, nil
	case sdb.TLong:
		d, err := io.Read(v.L)
		if err != nil {
			return nil, err
		}
		data = d
	case sdb.TBytes:
		if len(v.Y) > 0 && v.Y[0] == dataRegionTag {
			d, err := UnmarshalDataRegion(v.Y)
			if err != nil {
				return nil, err
			}
			s.metrics.Counter(metricRegionDecodes).Inc()
			return d.Region, nil
		}
		data = v.Y
	default:
		return nil, fmt.Errorf("qbism: expected a REGION (LONG or BYTES), got %s", v.T)
	}
	if m, ok := rencode.MethodOf(data); ok && m == rencode.K3Tree && !runs {
		p, err := rencode.ParseK3(data)
		if err != nil {
			return nil, err
		}
		s.metrics.Counter(metricRegionProbes).Inc()
		if call != nil {
			call.NoteProbe()
		}
		return p, nil
	}
	r, err := rencode.Decode(data)
	if err != nil {
		return nil, err
	}
	s.metrics.Counter(metricRegionDecodes).Inc()
	return r, nil
}

// regionRuns is regionOf for a caller that needs the run list.
func (s *Server) regionRuns(io *lfm.IO, call *sdb.Call, v sdb.Value) (*region.Region, error) {
	q, err := s.regionOf(io, call, v, true)
	if err != nil {
		return nil, err
	}
	return q.(*region.Region), nil
}
